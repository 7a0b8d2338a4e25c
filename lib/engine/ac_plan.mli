(** Compiled AC solve plan: the symbolic front end of {!Kernel}.

    Compiles {!Mna.elems} plus the linearised DC-operating-point
    primitives once into a frequency-parameterised sparse skeleton — a
    constant conductance part [G] and a reactive part [C] sharing one
    precomputed CSC pattern, so the system at angular frequency [w] is
    [G + jwC] — and runs the one symbolic analysis (pivot order and fill
    pattern) that {!Kernel.compile} flattens into the per-point
    factor/solve program. The plan itself solves nothing.

    Plans are immutable after {!compile}, so one plan may be shared by
    Domain-parallel sweep workers without locking. *)

type t

val compile : ?gmin:float -> ?omega_ref:float -> op:Dcop.t -> Mna.t -> t
(** Build the skeleton and run the one-per-sweep symbolic analysis.
    [gmin] (default 1e-12) is added on node diagonals exactly as in the
    dense path. [omega_ref] (default 2*pi*1e6) seeds the pivot order;
    any in-band frequency works — frequencies where the frozen order
    goes numerically stale re-pivot automatically in the kernel. *)

val size : t -> int
val nnz : t -> int

val matrix_at : t -> omega:float -> Numerics.Scmat.t
(** Numeric fill [G + jwC] of the shared pattern (O(nnz); fresh value
    array per call, pattern arrays shared). *)

val pivot_tol : float
(** Relative pivot floor under which the frozen pivot order is declared
    stale for a frequency point; {!Kernel} then re-pivots along the
    frozen column order ([Numerics.Scmat.repivot]). Refactoring
    {!matrix_at} along {!symbolic} with
    [Numerics.Scmat.refactor ~pivot_tol] is exactly the operation the
    kernel replays. *)

val skeleton : t -> int array * int array * float array * float array
(** [(colptr, rowidx, gvals, cvals)] — the shared CSC skeleton behind
    the plan, uncopied. Read-only: mutating any of these breaks every
    worker sharing the plan. Intended for {!Kernel.compile}. *)

val symbolic : t -> Numerics.Scmat.symbolic
(** The frozen one-per-plan symbolic analysis (same sharing caveat as
    {!skeleton}). *)

val analyses : unit -> int
(** Symbolic analyses since start-up, one per {!compile}; take deltas
    around a run to assert its budget (the benchmark and tests do). The
    count lives in the [Obs.Counter] registry as [acplan.symbolic], so
    traces, [--metrics] output and diagnostics reports carry the same
    value. Note that [Obs.Counter.reset] zeroes it. *)
