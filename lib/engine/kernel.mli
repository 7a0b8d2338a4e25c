(** Compiled per-circuit solve kernels: the sweep hot path.

    {!Ac_plan} runs the symbolic analysis once per circuit. {!compile}
    flattens that frozen elimination schedule (pivot order, fill
    pattern, update order) into preallocated index arrays; every
    frequency point then runs a straight-line, allocation-free
    factor/solve program over unboxed float planes, and {!run} batches
    whole chunks of the sweep through one workspace. This is the only
    compiled solve path; the dense per-point LU stays beside it as the
    oracle.

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

type workspace
(** Mutable per-worker scratch: unboxed RHS/solution planes plus the
    factor value arrays. Not thread-safe — one per concurrent chunk. *)

val workspace : t -> rhs:Complex.t array array -> workspace
(** Capture a right-hand-side batch (one column per probed node). The
    batch is read, never written. *)

val run :
  ?health:Health.meter -> workspace -> freqs:float array -> lo:int ->
  hi:int -> sel:int array -> outs:Complex.t array array -> unit
(** Advance sweep points [lo..hi-1]: for each frequency [freqs.(fk)]
    factor once, solve the whole batch, and write component [sel.(q)] of
    solution [q] to [outs.(q).(fk)]. Chunks over disjoint ranges write
    disjoint cells, so parallel execution is bit-identical to
    sequential. With [health], sampled points (see {!Health.tick})
    record rcond/growth/residual like the dense oracle. *)

val solve_many :
  ?health:Health.meter -> t -> omega:float -> Complex.t array array ->
  Complex.t array array
(** Full solutions at one frequency (the {!Ac} sweep and the
    equivalence tests); bit for bit the Scmat replay described above. *)

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
