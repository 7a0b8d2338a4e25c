(** Run modes of the stability tool (paper sections 4 and 6).

    "Single Node" probes one selected net, builds its stability plot,
    detects the peaks and estimates the phase margin. "All Nodes" probes
    every net of the design and produces the per-node peak list that the
    report generator turns into the paper's Table 2.

    Peaks found on the coarse sweep are optionally refined by re-probing a
    narrow log window around each peak at a much finer grid (the coarse
    grid alone biases sharp peaks low). Refinement is batched: nodes
    observing the same feedback loop peak at (nearly) the same natural
    frequency — the paper's loop-clustering insight — so their zoom
    windows are merged and re-probed together through one multi-RHS
    {!Probe.response_many} call per frequency group, sharing each
    per-point factorisation across every node of the loop.

    On the default solve path a run mode compiles exactly one
    {!Engine.Ac_plan} and its {!Engine.Kernel} and reuses them for the
    coarse scan and every zoom window — one symbolic analysis for an
    entire all-nodes run, refinement included (the
    {!Engine.Ac_plan.analyses} counter verifies it). *)

type options = {
  sweep : Numerics.Sweep.t;      (** coarse sweep (default 1 kHz - 1 GHz,
                                     30 points/decade) *)
  refine : bool;                 (** zoom re-probe around peaks (true) *)
  refine_ratio : float;          (** half-width of the zoom window as a
                                     frequency ratio (2.0); also the gap
                                     within which refinement jobs are
                                     merged into one batched window *)
  refine_per_decade : int;       (** zoom grid density (600) *)
  min_peak : float;              (** report peaks with |P| above this (0.2) *)
  dc_options : Engine.Dcop.options;
  parallel : [ `Auto | `Seq | `Par ];
  (** distribution of the sweeps over the persistent {!Parallel.Pool}.
      [`Auto] (the default) parallelises when the pool has workers and
      the sweep's volume clears {!Probe.auto_threshold}; [`Par] forces
      pooled execution, [`Seq] forces sequential. Results are
      bit-identical in every mode. *)
  backend : [ `Auto | `Dense ];
  (** linear-solver path handed to {!Probe.response_many}. [`Auto] (the
      default, at every circuit size) compiles one {!Engine.Kernel}
      per run, shared by the coarse scan and every zoom window;
      [`Dense] forces the dense oracle — useful for cross-checking the
      compiled path on the same design. *)
}

val default_options : options

type quality = Good | Degraded | Suspect
(** Numerical trustworthiness of a node's analysis, derived from the
    worst sampled factorisation health (reciprocal condition estimate,
    scaled residual — see {!Engine.Health}) across the run's sweeps plus
    the node's own clamp count. [Good]: nothing noteworthy. [Degraded]:
    rcond below 1e-8, scaled residual above 1e-9, or clamped samples —
    peak numbers carry fewer digits than usual. [Suspect]: rcond below
    1e-11 or residual above 1e-5 — the linear solves themselves are not
    trustworthy and neither are the peaks derived from them. *)

val quality_string : quality -> string
(** ["good" | "degraded" | "suspect"] — the spelling used by reports,
    manifests and [acstab diff]. *)

type node_result = {
  node : Circuit.Netlist.node;
  plot : Stability_plot.t;       (** coarse plot (kept for plotting) *)
  peaks : Peaks.peak list;       (** refined peaks *)
  dominant : Peaks.peak option;  (** deepest complex-pole peak *)
  degraded : int;
  (** number of coarse-sweep magnitude samples that had to be clamped
      (underflowed notch, non-finite solve). [> 0] means the plot around
      those samples is a floor artefact: the node completed analysis but
      its peaks deserve scrutiny. Reports flag such nodes. *)
  quality : quality;
  (** numerical-health grade of this node's analysis (see {!quality}).
      The factorisation-health component is shared by all nodes of a run
      (every node's solves go through the same per-point factors); the
      clamp component is per-node. *)
}

val single_node :
  ?options:options -> Circuit.Netlist.t -> Circuit.Netlist.node ->
  node_result

val all_nodes :
  ?options:options -> ?nodes:Circuit.Netlist.node list -> Circuit.Netlist.t ->
  node_result list
(** Probe every non-ground net (or the given subset). Nets the tool cannot
    probe meaningfully (probing reveals no finite response) are skipped.
    Results come back in net-name order. *)

val single_node_prepared :
  ?options:options -> ?plan:Engine.Ac_plan.t -> ?kernel:Engine.Kernel.t ->
  Probe.t -> Circuit.Netlist.node -> node_result
(** As {!single_node} with a pre-computed operating point. [plan] hands
    in an already-compiled solve plan (see {!shared_plan}) so a caller
    holding one — the fingerprint-keyed [Tool.Cache] across repeated
    requests on the same deck — pays zero further symbolic analyses;
    [kernel] does the same for the compiled kernel program (see
    {!shared_kernel}) and makes [plan] unnecessary. Both are ignored
    under the [`Dense] backend. *)

val all_nodes_prepared :
  ?options:options -> ?nodes:Circuit.Netlist.node list ->
  ?plan:Engine.Ac_plan.t -> ?kernel:Engine.Kernel.t -> Probe.t ->
  node_result list

val shared_plan : options -> Probe.t -> Engine.Ac_plan.t option
(** The plan a run mode would compile for these options: [Some] unless
    the configured backend is [`Dense]. Compiling costs one symbolic
    analysis; the result is valid for any sweep of the same prepared
    circuit. *)

val shared_kernel :
  options -> Engine.Ac_plan.t option -> Engine.Kernel.t option
(** The kernel a run mode would compile from that plan: [Some] whenever
    a plan exists. Compilation is cheap (array flattening, no
    factorisation) and the kernel, like the plan, is valid for any sweep
    of the same prepared circuit. *)
