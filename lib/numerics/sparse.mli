(** Sparse matrices with LU factorisation over an arbitrary scalar field
    (left-looking Gilbert-Peierls with partial pivoting, in a
    minimum-degree column order computed on the pattern of [A + A^T]).
    See the implementation header for the algorithm; {!Srmat} and
    {!Scmat} are the real and complex instantiations. *)

exception Singular of int
(** No acceptable pivot for the given (original) column. *)

module Make (F : Field.S) : sig
  type elt = F.t
  type t

  val of_triplets : rows:int -> cols:int -> (int * int * elt) list -> t
  (** Duplicate entries are summed; exact zeros dropped. *)

  val of_csc :
    rows:int -> cols:int -> colptr:int array -> rowidx:int array ->
    elt array -> t
  (** Wrap caller-built compressed-sparse-column arrays (no copy; the
      caller must not mutate [colptr]/[rowidx] afterwards). Row indices
      within a column need not be sorted. The AC plan compiler builds one
      pattern per sweep and re-wraps a fresh value array per frequency
      point — an O(nnz) numeric fill with no triplet harvesting. *)

  val rows : t -> int
  val cols : t -> int
  val nnz : t -> int
  val mulvec : t -> elt array -> elt array

  type factor

  val lu_factor : t -> factor
  (** [P A Q = L U] with [Q] the fill-reducing column order and [P] from
      partial pivoting. Raises {!Singular} when a column has no usable
      pivot. *)

  type symbolic
  (** Frequency-independent part of a factorisation: column order, fill-in
      pattern of L and U, and the pivot order, frozen by {!analyze}. *)

  val analyze : t -> symbolic * factor
  (** Orders the columns, then runs the pivoting factorisation that also
      freezes the symbolic analysis.
      Every structurally reachable entry is kept (numeric zeros
      included), so the frozen pattern covers the matrix at any other
      parameter value with the same structure. Returns the factor at the
      analysis values too, so the first point of a sweep is not paid
      twice. Raises {!Singular} like {!lu_factor}. *)

  val refactor : ?pivot_tol:float -> symbolic -> t -> factor
  (** Numeric-only refactorisation along the frozen pattern: no DFS, no
      pivot search — the per-frequency cost of a sweep. The matrix
      pattern must be contained in the analyzed one (sharing the
      {!of_csc} pattern arrays guarantees it). Raises {!Singular} when a
      frozen pivot is exactly zero, non-finite, or — with [pivot_tol]
      > 0 — smaller than [pivot_tol] times the largest eliminated entry
      of its column; callers fall back to {!repivot} then. *)

  val repivot : symbolic -> t -> factor
  (** Fresh partial pivoting along the frozen column order of [symbolic]:
      the fallback where {!refactor} finds the frozen pivots stale. No
      second ordering is computed. Raises {!Singular} like
      {!lu_factor}. *)

  type schedule = {
    sched_n : int;
    sched_q : int array;
    (** elimination step -> original column: step [j] scatters column
        [sched_q.(j)] of the matrix and solves for unknown [sched_q.(j)] *)
    sched_pinv : int array;     (** original row -> pivot position *)
    sched_rowperm : int array;  (** pivot position -> original row *)
    sched_l : int array array;
    (** per elimination step: original row indices of the strictly-lower
        entries, in elimination storage order *)
    sched_u : int array array;
    (** per elimination step: dependency pivot positions in ascending
        order, with the diagonal position appended last — the exact order
        {!refactor} replays *)
  }
  (** The frozen elimination schedule behind a {!symbolic}, exported as
      plain arrays so kernel compilers ({!Engine.Kernel}) can flatten it
      into straight-line index programs. *)

  val schedule_of : symbolic -> schedule
  (** Copies — the symbolic analysis stays immutable whatever the caller
      does with the export. *)

  val lu_solve : factor -> elt array -> elt array

  val lu_solve_many : factor -> elt array array -> elt array array
  (** Solve one factor against many right-hand sides (the multi-RHS
      batch of the all-nodes probing mode). *)

  val lu_solve_t : factor -> elt array -> elt array
  (** Solve [A^T x = b] from the same factor (no transposed copy). Used
      by the Hager/Higham condition estimator. *)

  val norm1 : t -> float
  (** Maximum column absolute sum. *)

  val pivot_growth : t -> factor -> float
  (** Element growth [max|U| / max|A|] of a factorisation of [t]; large
      values mean the (possibly frozen) pivot order is losing digits. *)

  val residual_inf : t -> elt array -> elt array -> float
end
