open Numerics

type options = {
  sweep : Numerics.Sweep.t;
  refine : bool;
  refine_ratio : float;
  refine_per_decade : int;
  min_peak : float;
  dc_options : Engine.Dcop.options;
  parallel : [ `Auto | `Seq | `Par ];
  backend : [ `Auto | `Dense ];
}

let default_options =
  { sweep = Sweep.decade 1e3 1e9 30;
    refine = true;
    refine_ratio = 2.0;
    refine_per_decade = 600;
    min_peak = 0.2;
    dc_options = Engine.Dcop.default_options;
    parallel = `Auto;
    backend = `Auto }

(* One compiled plan for the whole run mode: the coarse scan and every
   zoom window share the circuit's MNA pattern, so they share its
   symbolic analysis too. [None] on the dense oracle path. *)
let shared_plan opts probe =
  match opts.backend with
  | `Dense -> None
  | `Auto -> Some (Probe.plan probe ~sweep:opts.sweep)

(* One compiled kernel per run mode, for the same reason: coarse scan
   and zoom windows share the plan's symbolic analysis, hence also its
   flattened kernel program. *)
let shared_kernel _opts plan = Option.map Engine.Kernel.compile plan

(* The kernel a run mode hands to every sweep: the caller's, else one
   compiled from the caller's plan or a fresh one. *)
let run_kernel opts ?plan ?kernel probe =
  match (opts.backend, kernel) with
  | `Dense, _ -> None
  | `Auto, Some _ -> kernel
  | `Auto, None ->
    shared_kernel opts
      (match plan with Some _ -> plan | None -> shared_plan opts probe)

let response_many opts ?kernel ?health probe nodes ~sweep =
  Probe.response_many ~backend:opts.backend ~parallel:opts.parallel ?kernel
    ?health probe ~sweep nodes

type quality = Good | Degraded | Suspect

let quality_string = function
  | Good -> "good"
  | Degraded -> "degraded"
  | Suspect -> "suspect"

(* Grade thresholds on the worst sampled health of the run's sweeps
   (documented in MANUAL section 8). rcond 1e-8 leaves ~8 trustworthy
   digits — enough for 3-digit peak numbers with margin; below 1e-11
   the solve carries the answer's leading digits away. The scaled
   residual of a backward-stable solve sits near machine epsilon times
   the pivot growth, so 1e-9 already signals real element growth and
   1e-5 means the "solution" barely satisfies the system. *)
let rcond_degraded = 1e-8
let rcond_suspect = 1e-11
let residual_degraded = 1e-9
let residual_suspect = 1e-5

(* The health meter is shared by every sweep of a run (all nodes of a
   sweep share each frequency point's factorisation, so factorisation
   health is genuinely collective); the clamp count is the per-node
   signal layered on top. *)
let grade health degraded =
  let by_health =
    match health with
    | Some m when Engine.Health.samples m > 0 ->
        let r = Engine.Health.worst_rcond m in
        let res = Engine.Health.worst_residual m in
        if r < rcond_suspect || res > residual_suspect then Suspect
        else if r < rcond_degraded || res > residual_degraded then Degraded
        else Good
    | _ -> Good
  in
  match by_health with
  | Suspect -> Suspect
  | Degraded -> Degraded
  | Good -> if degraded > 0 then Degraded else Good

type node_result = {
  node : Circuit.Netlist.node;
  plot : Stability_plot.t;
  peaks : Peaks.peak list;
  dominant : Peaks.peak option;
  degraded : int;
  quality : quality;
}

let zoom_windows_counter = Obs.Counter.make "analysis.zoom_windows"
let degraded_counter = Obs.Counter.make "analysis.degraded_nodes"

let sweep_bounds sweep =
  let pts = Sweep.points sweep in
  (pts.(0), pts.(Array.length pts - 1))

(* Nets held by ideal sources have an essentially zero probe response
   (the injected current sinks entirely into the source): such nets are
   unobservable and reported as dead. On live nets, samples many orders of
   magnitude below the response maximum (numerical residue of a pinned
   frequency range, or a notch deeper than the solver resolves) are
   clamped so the logarithmic differentiation stays finite; the clamp sits
   far below anything a real pole/zero produces. *)
(* Returns the cleaned response together with the number of clamped
   samples — a node with any clamp is reported as degraded rather than
   silently dropped (one underflowed notch or non-finite solve must not
   lose the node, let alone kill an all-nodes run). *)
let live_window (w : Waveform.Freq.t) =
  let mag = Waveform.Freq.mag w in
  let max_mag =
    Array.fold_left
      (fun acc m -> if Float.is_finite m then Float.max acc m else acc)
      0. mag
  in
  (* A driving-point impedance below a nano-ohm is not a physical node
     response; it is LU solver residue on a net pinned by an ideal
     source. *)
  if max_mag < 1e-9 then None
  else begin
    let floor = max_mag *. 1e-14 in
    let clamped = ref 0 in
    let h =
      Array.mapi
        (fun k z ->
          if Float.is_finite mag.(k) && mag.(k) >= floor then z
          else begin
            incr clamped;
            { Complex.re = floor; im = 0. }
          end)
        w.Waveform.Freq.h
    in
    Some (Waveform.Freq.make w.Waveform.Freq.freqs h, !clamped)
  end

(* Select the refined peak from a zoom-window response: the candidate of
   the same kind closest to the coarse estimate in log frequency. Edge
   hits in the zoom window mean the coarse peak was spurious curvature,
   in which case keep the coarse data. *)
let refined_from opts (coarse : Peaks.peak) w =
  match live_window w with
  | None -> coarse
  | Some (w, _) ->
    let center = coarse.Peaks.freq in
    let plot = Stability_plot.of_response w in
    let candidates =
      Peaks.analyze ~min_magnitude:(opts.min_peak /. 2.) plot
      |> List.filter (fun (p : Peaks.peak) -> p.kind = coarse.kind)
    in
    candidates
    |> List.filter (fun (p : Peaks.peak) ->
        not (List.mem Peaks.End_of_range p.notices))
    |> List.sort (fun (a : Peaks.peak) b ->
        compare
          (Float.abs (log (a.freq /. center)))
          (Float.abs (log (b.freq /. center))))
    |> function
    | best :: _ ->
      (* Keep coarse-plot notices that still apply (end-of-range refers to
         the full sweep, not the zoom window). *)
      let notices =
        (if List.mem Peaks.End_of_range coarse.notices then
           [ Peaks.End_of_range ]
         else [])
        @ List.filter (fun n -> n <> Peaks.End_of_range) best.Peaks.notices
      in
      { best with notices }
    | [] -> coarse

(* A refinement job: one coarse peak of one node, keyed so the refined
   result lands back in that node's peak list. *)
type refine_job = {
  rj_node : Circuit.Netlist.node;
  rj_slot : int;                  (* index within the node's peak list *)
  rj_coarse : Peaks.peak;
}

(* Batched zoom refinement. Nodes of one feedback loop peak at (nearly)
   the same natural frequency — the paper's loop-clustering insight — so
   their zoom windows coincide. Grouping the jobs by coarse frequency
   and re-probing each merged window once with a multi-RHS
   {!Probe.response_many} call shares the per-point factorisation across
   every node of the loop instead of re-probing one node at a time. The
   zoom windows additionally reuse [kernel] — the coarse sweep's
   compiled solve program — so the whole refinement pass performs zero
   further symbolic analyses. *)
let refine_batched opts ?kernel ?health probe jobs =
  let fmin, fmax = sweep_bounds opts.sweep in
  let sorted =
    List.sort
      (fun a b -> compare a.rj_coarse.Peaks.freq b.rj_coarse.Peaks.freq)
      jobs
  in
  (* Chain-group: a job joins the current group while its center lies
     within [refine_ratio] of the previous one, so windows that would
     overlap anyway are merged. *)
  let rec group acc current = function
    | [] -> List.rev (match current with [] -> acc | c -> List.rev c :: acc)
    | j :: rest ->
      (match current with
       | [] -> group acc [ j ] rest
       | prev :: _
         when j.rj_coarse.Peaks.freq /. prev.rj_coarse.Peaks.freq
              <= opts.refine_ratio ->
         group acc (j :: current) rest
       | _ -> group (List.rev current :: acc) [ j ] rest)
  in
  let groups = group [] [] sorted in
  List.concat_map
    (fun grp ->
      let centers = List.map (fun j -> j.rj_coarse.Peaks.freq) grp in
      let cmin = List.fold_left Float.min Float.infinity centers in
      let cmax = List.fold_left Float.max 0. centers in
      let lo = Float.max fmin (cmin /. opts.refine_ratio) in
      let hi = Float.min fmax (cmax *. opts.refine_ratio) in
      if hi <= lo *. 1.01 then
        List.map (fun j -> (j, j.rj_coarse)) grp
      else begin
        let zoom = Sweep.decade lo hi opts.refine_per_decade in
        let nodes =
          List.sort_uniq compare (List.map (fun j -> j.rj_node) grp)
        in
        Obs.Counter.incr zoom_windows_counter;
        let t0 = Obs.Span.enter () in
        let responses =
          response_many opts ?kernel ?health probe nodes ~sweep:zoom
        in
        Obs.Span.leave "analysis.zoom"
          ~args:
            [ ("nets", List.length nodes);
              ("points", Array.length (Sweep.points zoom)) ]
          t0;
        List.map
          (fun j ->
            let w = List.assoc j.rj_node responses in
            (j, refined_from opts j.rj_coarse w))
          grp
      end)
    groups

(* Coarse analysis of every live net, then one batched refinement pass
   over all (node, peak) jobs at once. *)
let analyze_many opts ?kernel ?health probe entries =
  let t_classify = Obs.Span.enter () in
  let coarse =
    List.filter_map
      (fun (node, w) ->
        match live_window w with
        | None ->
          (* Pinned by an ideal source: unobservable, skipped — as the
             paper's tool skips nets it cannot stimulate. *)
          None
        | Some (response, degraded) ->
          if degraded > 0 then Obs.Counter.incr degraded_counter;
          let plot = Stability_plot.of_response response in
          let peaks = Peaks.analyze ~min_magnitude:opts.min_peak plot in
          Some (node, plot, degraded, peaks))
      entries
  in
  Obs.Span.leave "analysis.classify" ~args:[ ("nets", List.length coarse) ]
    t_classify;
  let refined_of =
    if not opts.refine then fun _ _ coarse_pk -> coarse_pk
    else begin
      let jobs =
        List.concat_map
          (fun (node, _, _, peaks) ->
            List.mapi
              (fun slot pk ->
                { rj_node = node; rj_slot = slot; rj_coarse = pk })
              peaks)
          coarse
      in
      let table = Hashtbl.create 32 in
      List.iter
        (fun (j, refined) -> Hashtbl.replace table (j.rj_node, j.rj_slot)
            refined)
        (refine_batched opts ?kernel ?health probe jobs);
      fun node slot coarse_pk ->
        match Hashtbl.find_opt table (node, slot) with
        | Some refined -> refined
        | None -> coarse_pk
    end
  in
  List.map
    (fun (node, plot, degraded, peaks) ->
      let peaks = List.mapi (fun slot pk -> refined_of node slot pk) peaks in
      { node; plot; peaks; dominant = Peaks.dominant peaks; degraded;
        quality = grade health degraded })
    coarse

let analyze_node opts ?kernel ?health probe node response =
  match analyze_many opts ?kernel ?health probe [ (node, response) ] with
  | [ r ] -> r
  | _ ->
    failwith
      (Printf.sprintf
         "Stability.Analysis: net %S shows no finite AC response (held by \
          an ideal source?)"
         node)

let single_node_prepared ?(options = default_options) ?plan ?kernel probe
    node =
  let kernel = run_kernel options ?plan ?kernel probe in
  let health = Engine.Health.meter () in
  let t0 = Obs.Span.enter () in
  let w =
    match
      response_many options ?kernel ~health probe [ node ]
        ~sweep:options.sweep
    with
    | [ (_, w) ] -> w
    | _ -> assert false
  in
  Obs.Span.leave "analysis.coarse" ~args:[ ("nets", 1) ] t0;
  analyze_node options ?kernel ~health probe node w

let all_nodes_prepared ?(options = default_options) ?nodes ?plan ?kernel
    probe =
  let all =
    match nodes with
    | Some ns -> ns
    | None ->
      Array.to_list (Circuit.Topology.nodes probe.Probe.mna.Engine.Mna.topo)
  in
  let kernel = run_kernel options ?plan ?kernel probe in
  let health = Engine.Health.meter () in
  let t0 = Obs.Span.enter () in
  let responses =
    response_many options ?kernel ~health probe all ~sweep:options.sweep
  in
  Obs.Span.leave "analysis.coarse" ~args:[ ("nets", List.length all) ] t0;
  analyze_many options ?kernel ~health probe responses

let single_node ?(options = default_options) circ node =
  let probe = Probe.prepare ~dc_options:options.dc_options circ in
  single_node_prepared ~options probe node

let all_nodes ?(options = default_options) ?nodes circ =
  let probe = Probe.prepare ~dc_options:options.dc_options circ in
  all_nodes_prepared ~options ?nodes probe
