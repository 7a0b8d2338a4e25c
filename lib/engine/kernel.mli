(** Compiled per-circuit solve kernels: the sweep hot path.

    {!Ac_plan} runs the symbolic analysis once per circuit. {!compile}
    flattens that frozen elimination schedule (pivot order, fill
    pattern, update order) into preallocated index arrays; every
    frequency point then runs a straight-line, allocation-free
    factor/solve program over unboxed float planes, and {!run} batches
    whole chunks of the sweep through one workspace. This is the only
    compiled solve path; the dense per-point LU stays beside it as the
    oracle. Per point it costs one refactorisation plus, for each right-
    hand side, the substitution steps its {!selection} keeps.

    The kernel replays the exact float operation sequence of
    [Numerics.Scmat.refactor ~pivot_tol:Ac_plan.pivot_tol] on
    {!Ac_plan.matrix_at} along {!Ac_plan.symbolic}, followed by
    [Numerics.Scmat.lu_solve_many] (Smith's division, hypot magnitudes,
    sparsity skips, the single-RHS back-substitution form), so its
    results equal that Scmat replay bit for bit; frequencies where the
    frozen pivot order goes numerically stale fall back to fresh partial
    pivoting along the frozen column order ([Numerics.Scmat.repivot]; no
    second ordering). Kernels are
    immutable after {!compile} and safe to share across Domain-parallel
    workers; all mutable state lives in per-worker {!workspace}s. *)

type t

val compile : Ac_plan.t -> t
(** Flatten the plan's symbolic analysis into the kernel program. Cheap
    (array flattening, no factorisation) — but cached per fingerprint by
    [Tool.Cache] so warm repeats compile nothing at all. Sets the gauges
    [kernel.lu_nnz] (nnz(L+U)) and [kernel.lu_madds] (multiply-adds per
    refactorisation) to this kernel's fill. *)

val size : t -> int

val chunk : int
(** Suggested frequency points per {!run} invocation: large enough to
    amortise workspace setup, small enough to load-balance. *)

type selection
(** What one sweep solves for: a right-hand-side batch and, for each
    right-hand side [j], the one component [sel.(j)] the sweep reads
    (a probed net's own response, x_i of A x = e_i). For each [j] the
    selection keeps the pivot steps that component depends on, taken
    from the frozen schedule: the forward reach in L from the
    right-hand side's nonzero rows (a step outside it only ever meets
    exact zeros) and the backward reach in U from the step that solves
    for [sel.(j)] (a step outside it only writes rows that unknown
    never reads). The substitutions run over just those steps, in the
    full solve's order, so every component read is bit for bit the
    full solve's. *)

val select :
  t -> rhs:Complex.t array array -> sel:int array -> selection
(** Build a sweep's selection once; pooled chunks share it read-only.
    The batch is read, never written. Sets the gauge
    [kernel.solve_madds] to the substitution multiply-adds one point
    of this selection costs (the full solve of [m] right-hand sides
    costs [m * (nnz(L+U) - n)]).
    @raise Invalid_argument on an arity, size or [sel] range error. *)

type workspace
(** Mutable per-worker scratch: unboxed work planes plus the factor
    value arrays. Not thread-safe — one per concurrent chunk. *)

val workspace : selection -> workspace

val run :
  ?health:Health.meter -> workspace -> freqs:float array -> lo:int ->
  hi:int -> outs:Complex.t array array -> unit
(** Advance sweep points [lo..hi-1]: for each frequency [freqs.(fk)]
    factor once, run each right-hand side's selected substitutions, and
    write component [sel.(j)] of solution [j] to [outs.(j).(fk)].
    Chunks over disjoint ranges write disjoint cells, so parallel
    execution is bit-identical to sequential. With [health], a point
    whose index [fk] is sampled (see {!Health.sampled}) solves its
    first right-hand side over all steps and records that solution's
    rcond/growth/residual like the dense oracle. *)

val solve_many :
  ?health:Health.meter -> ?point:int -> t -> omega:float ->
  Complex.t array array -> Complex.t array array
(** Full solutions at one frequency (the {!Ac} sweep and the
    equivalence tests): the all-steps case of the same substitution
    body, bit for bit the Scmat replay described above. [point] is the
    frequency's index within its sweep (default 0), which decides
    whether the point is health-sampled. *)

type totals = {
  compiles : int;   (** kernel compilations (warm cache repeat: zero) *)
  points : int;     (** frequency points advanced *)
  fallback : int;   (** points re-pivoted because frozen pivots staled *)
  batch_max : int;  (** high-water points per invocation *)
}

val totals : unit -> totals
(** Process-wide counters since start-up; take deltas to assert the
    compile/point budget. Registered in the [Obs.Counter] registry as
    [kernel.compiles], [kernel.points], [kernel.fallback] and
    [kernel.batch_max]. *)
