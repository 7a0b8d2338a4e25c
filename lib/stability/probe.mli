(** AC current-probe excitation of circuit nets (paper section 2).

    "The technique excites selected or all circuit nodes consecutively by
    applying an AC-current signal source to the tested node without
    changing the circuit under inspection at all." The measured response is
    the net's driving-point transimpedance Z(j w): an ideal current probe
    adds nothing to the system matrix, only to the excitation vector, so
    the all-nodes mode factors the matrix once per frequency and back-
    substitutes one RHS per net. A netlist-level path (attach a real
    [Isource] probe and run a plain AC analysis) is kept as the reference
    implementation; both agree to solver precision. *)

type t = {
  mna : Engine.Mna.t;
  op : Engine.Dcop.t;
}

val prepare :
  ?dc_options:Engine.Dcop.options -> Circuit.Netlist.t -> t
(** Compile the design and find its operating point once. Pre-existing AC
    stimuli are irrelevant to probing (the probe provides its own
    excitation and ignores the sources' AC values — the tool's "auto-zero
    all AC sources" feature). *)

val response :
  ?gmin:float -> t -> sweep:Numerics.Sweep.t -> Circuit.Netlist.node ->
  Numerics.Waveform.Freq.t
(** Driving-point transimpedance of one net across a sweep. *)

val plan : ?gmin:float -> t -> sweep:Numerics.Sweep.t -> Engine.Ac_plan.t
(** Compile the probe's MNA system into an AC solve plan (the kernel's
    symbolic analysis) seeded at the sweep's mid-band frequency. The
    plan is valid for {e any} sweep of the same circuit — compile it
    into one {!Engine.Kernel} and hand that to several {!response_many}
    calls (a coarse scan plus its zoom refinements) to pay for exactly
    one symbolic analysis in total. *)

val auto_threshold : int
(** Arithmetic volume (unknowns x points x probed nets) above which
    [`Auto] distributes a sweep over the {!Parallel.Pool}. *)

val estimated_work : unknowns:int -> points:int -> nets:int -> int
(** The volume proxy behind the [`Auto] decision:
    [unknowns * points * max 1 nets]. *)

val auto_decision : unknowns:int -> points:int -> nets:int -> bool
(** Exactly the seq/par choice [`Auto] makes for a sweep of this shape:
    true iff {!estimated_work} clears {!auto_threshold}, the calling
    domain is not already a pool worker, and
    [Parallel.Pool.effective_jobs () > 1] — the {e effective} count, so
    [`Auto] never selects pooled execution that the core-count clamp
    would make pointless (or, before the clamp existed, actively
    harmful). Counters: every sweep increments [probe.sweeps]; sweeps
    that actually run pooled also increment [probe.sweeps_par], so a
    manifest or [--metrics] snapshot records which mode really ran. *)

val response_many :
  ?gmin:float -> ?backend:[ `Auto | `Dense ] ->
  ?parallel:[ `Auto | `Seq | `Par ] -> ?plan:Engine.Ac_plan.t ->
  ?kernel:Engine.Kernel.t -> ?health:Engine.Health.meter ->
  t -> sweep:Numerics.Sweep.t -> Circuit.Netlist.node list ->
  (Circuit.Netlist.node * Numerics.Waveform.Freq.t) list
(** Shared-factorisation probing of many nets.

    [`Auto] (the default, at every circuit size) runs the sweep through
    one compiled {!Engine.Kernel}: one symbolic analysis per sweep, then
    per frequency point one flattened, allocation-free refactorisation
    and all probed nets solved as one multi-RHS batch, advanced in
    chunks of {!Engine.Kernel.chunk} points per kernel invocation.
    Passing [kernel] skips both compilations; passing [plan] (see
    {!val:plan}) skips the symbolic analysis. [`Dense] ignores both and
    runs the oracle: a fresh dense LU per point.

    [parallel] spreads the independent frequency points over the
    persistent {!Parallel.Pool} in dynamically stolen chunks (the
    paper's "distributed run" capability at multicore scale). [`Auto]
    (the default) goes parallel only when the pool has workers and the
    sweep's volume clears {!auto_threshold}; results are bit-identical
    to sequential either way.

    [health] accumulates sampled per-factorisation health (see
    {!Engine.Health}) across the sweep; the analysis layer turns its
    worst-case values into per-node quality grades. *)

val response_via_netlist :
  ?gmin:float -> ?dc_options:Engine.Dcop.options -> Circuit.Netlist.t ->
  sweep:Numerics.Sweep.t -> Circuit.Netlist.node -> Numerics.Waveform.Freq.t
(** Reference path: zero the design's AC stimuli, attach a unit AC current
    source to the net ({!Circuit.Transform.with_ac_current_probe}) and run
    a normal AC analysis. *)
