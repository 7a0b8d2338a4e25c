(* Per-layer decomposition of one cold analysis: every public entry point
   the pipeline composes, called in turn on the same deck, each timed as
   its own span. Structural counts of the LU schedule are computed, not
   timed. *)

module P = Tool.Pipeline

(* nnz(L+U) and multiply-adds of one refactorisation along the frozen
   elimination schedule of a compiled plan. *)
let lu_work plan =
  let sch = Numerics.Scmat.schedule_of (Engine.Ac_plan.symbolic plan) in
  let l_len = Array.map Array.length sch.Numerics.Scmat.sched_l in
  let nnz_lu =
    Array.fold_left ( + ) 0 l_len
    + Array.fold_left (fun a u -> a + Array.length u) 0 sch.sched_u
  in
  (* Column j is updated by each dependency k (all but the trailing
     diagonal entry of sched_u.(j)): one multiply-add per entry of L_k. *)
  let madds =
    Array.fold_left
      (fun a u ->
        let deps = Array.length u - 1 in
        let s = ref 0 in
        for q = 0 to deps - 1 do s := !s + l_len.(u.(q)) done;
        a + !s)
      0 sch.sched_u
  in
  (Engine.Ac_plan.nnz plan, nnz_lu, madds)

(* Structural LU figures per deck, computed once per deck. *)
let lu_cache : (string, int * int * int) Hashtbl.t = Hashtbl.create 16

let lu_of job probe plan =
  match Hashtbl.find_opt lu_cache job.Decks.text with
  | Some w -> w
  | None ->
    let plan =
      match plan with
      | Some p -> p
      | None ->
        (* Below the dense cutoff the run compiles no plan; compile one
           here just to read the structure. *)
        Engine.Ac_plan.compile ~op:probe.Stability.Probe.op probe.mna
    in
    let w = lu_work plan in
    Hashtbl.replace lu_cache job.Decks.text w;
    w

(* Decompose [job] into its layer calls under operation [op]; adds the
   structural counts to [acc] (the timings live in the spans). *)
let decompose ~op ~acc job =
  let options = Decks.options job in
  Trace.record ~op "layers" (fun root ->
      let sp name f = Trace.record ~parent:root ~op name (fun _ -> f ()) in
      let circ =
        sp "circuit.parse" (fun () -> Decks.parse job)
      in
      ignore (sp "lint.run" (fun () -> Lint.Runner.run circ));
      let report =
        sp "staticanalysis.report" (fun () -> Staticanalysis.Report.analyze circ)
      in
      let loaded =
        match
          sp "tool.load" (fun () -> P.load (Decks.deck job))
        with
        | Ok l -> l
        | Error f -> failwith (P.failure_message f)
      in
      let probe = sp "engine.prepare" (fun () -> Stability.Probe.prepare circ) in
      let plan, kernel =
        sp "engine.compile" (fun () ->
            let plan = Stability.Analysis.shared_plan options probe in
            (plan, Stability.Analysis.shared_kernel options plan))
      in
      let nodes =
        match job.analysis with
        | P.All_nodes ns -> ns
        | P.Single_node n -> Some [ n ]
        | P.Auto_nodes ->
          (match report.Staticanalysis.Report.cover with
           | [] -> None
           | cover -> Some cover)
      in
      let nets =
        match nodes with
        | Some ns -> ns
        | None ->
          Array.to_list (Circuit.Topology.nodes probe.mna.Engine.Mna.topo)
      in
      let before = Counters.snapshot () in
      ignore
        (sp "probe.coarse" (fun () ->
             Stability.Probe.response_many ?plan ?kernel probe
               ~sweep:options.sweep nets));
      let points = Counters.delta before (Counters.snapshot ()) "probe.points" in
      Counters.Acc.add acc "coarse_points" (float_of_int points);
      Counters.Acc.add acc "coarse_solves"
        (float_of_int (points * List.length nets));
      let results =
        sp "analysis.run" (fun () ->
            Stability.Analysis.all_nodes_prepared ~options ?nodes ?plan ?kernel
              probe)
      in
      ignore
        (sp "report.render" (fun () -> Stability.Report.all_nodes_string results));
      let manifest =
        sp "tool.manifest" (fun () ->
            P.manifest_of ~cache:(Tool.Cache.create ()) loaded
              ~options:[ ("mode", "all-nodes") ] ~results ~wall_s:0. ~cpu_s:0.)
      in
      let text = sp "tool.manifest_encode" (fun () -> Tool.Manifest.to_json manifest) in
      Counters.Acc.add acc "manifest_kb" (float_of_int (String.length text) /. 1024.);
      (probe, plan))
  |> fun (probe, plan) ->
  (* Outside the spans: structure, not time. *)
  let nnz_a, nnz_lu, madds = lu_of job probe plan in
  Counters.Acc.add acc "nnz_a" (float_of_int nnz_a);
  Counters.Acc.add acc "nnz_lu" (float_of_int nnz_lu);
  Counters.Acc.add acc "madds" (float_of_int madds)

(* The layer calls whose sum a cold Pipeline.run is compared against
   (tool.load and staticanalysis.report repeat work the run does inside
   lint and manifest_of). *)
let pipeline_layers =
  [ "circuit.parse"; "lint.run"; "engine.prepare"; "engine.compile";
    "analysis.run"; "tool.manifest" ]
