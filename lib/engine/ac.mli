(** Small-signal AC analysis.

    Linearises the circuit at its DC operating point and solves the complex
    MNA system at every sweep frequency, driven by the AC magnitudes/phases
    of the independent sources. *)

type result = {
  mna : Mna.t;
  op : Dcop.t;
  freqs : float array;
  solutions : Complex.t array array;  (** [solutions.(k)] at [freqs.(k)] *)
}

val run :
  ?dc_options:Dcop.options -> ?gmin:float -> ?backend:[ `Auto | `Dense ] ->
  sweep:Numerics.Sweep.t -> Circuit.Netlist.t -> result
(** Compile, find the operating point, and sweep. Raises
    {!Dcop.No_convergence} / {!Mna.Compile_error} like its parts. *)

val run_compiled :
  ?op:Dcop.t -> ?gmin:float -> ?backend:[ `Auto | `Dense ] ->
  sweep:Numerics.Sweep.t -> Mna.t -> result
(** Sweep a pre-compiled circuit, reusing a known operating point. The
    default [`Auto] compiles one {!Ac_plan} symbolic analysis and its
    {!Kernel} factor/solve program per sweep, whatever the circuit size;
    [`Dense] forces the dense per-point LU oracle. *)

val matrix_at :
  Mna.t -> Linearize.prim list -> gmin:float -> w:float -> Numerics.Cmat.t ->
  unit
(** Stamp the complex system matrix at angular frequency [w] into a zeroed
    matrix (sources contribute nothing — excitations are separate RHS
    vectors). Exposed for the probing and noise analyses. *)

val matrix_of :
  ?gmin:float -> op:Dcop.t -> omega:float -> Mna.t -> Numerics.Cmat.t
(** Freshly stamped dense system at one angular frequency. *)

val factor_at :
  ?gmin:float -> op:Dcop.t -> omega:float -> Mna.t -> Numerics.Cmat.factor
(** LU factor of the small-signal system at one angular frequency. Probing
    analyses (the stability tool's all-nodes mode) solve this factor
    against many excitation vectors — a current probe only contributes to
    the right-hand side. *)

val dense_health :
  ?meter:Health.meter -> Numerics.Cmat.t -> Numerics.Cmat.factor ->
  x:Complex.t array -> b:Complex.t array -> unit
(** Record one sampled dense factorisation's health (rcond estimate,
    pivot growth, scaled residual of [x] against [b]); mirrors the
    {!Kernel}'s sampled recording so node grades do not depend on the
    backend. *)

val v : result -> Circuit.Netlist.node -> Waveform.Freq.t
(** Node-voltage response across the sweep. Raises [Invalid_argument]
    naming the net when it is unknown or ground (matching
    {!Stability.Probe.response_many}) rather than returning a silent
    all-zero waveform. *)

val vdiff : result -> Circuit.Netlist.node -> Circuit.Netlist.node ->
  Waveform.Freq.t

val branch_i : result -> string -> Waveform.Freq.t
(** Branch current of a voltage-defined device. *)
