(** Sampled numerical-health recording for the solve paths.

    Every Nth point of a sweep (default 16, [--health-sample] on the
    CLI; see {!sampled}) the engine estimates the factor's reciprocal
    condition number, element growth and a scaled solve residual,
    recording them into the
    process-wide histograms [health.rcond], [health.pivot_growth] and
    [health.residual] — and, when the caller passes a {!meter}, into
    per-sweep worst-case cells that the stability layer grades nodes
    from. All state is atomic; meters may be written concurrently by
    pooled sweep workers. *)

val default_sample_every : int

val set_sample_every : int -> unit
(** Set the sampling interval (clamped to at least 1 = every point). *)

val sample_every : unit -> int

val sampled : int -> bool
(** [sampled i]: true when point [i] of a sweep (its index within that
    sweep) is health-sampled, i.e. a multiple of {!sample_every}. The
    choice depends on the sweep alone, so sequential, pooled and
    repeated runs sample the same points. *)

type meter
(** Worst-case health accumulator for one logical unit of work (a
    sweep). *)

val meter : unit -> meter

val record :
  ?meter:meter -> rcond:float -> growth:float -> residual:float -> unit -> unit
(** Record one sampled factorisation into the histograms and, when
    given, the meter. *)

val record_dc_residual : float -> unit
(** Record the scaled residual of a converged DC solve into
    [health.dc_residual]. *)

val worst_rcond : meter -> float
(** Smallest sampled rcond; [infinity] when nothing was sampled. *)

val worst_residual : meter -> float
(** Largest sampled scaled residual; [0.] when nothing was sampled. *)

val samples : meter -> int

val relative_residual :
  norm1:float -> residual_inf:float -> x_inf:float -> b_inf:float -> float
(** Backward-error style scaling: [|Ax-b|_inf / (||A||_1 |x|_inf + |b|_inf)]. *)
