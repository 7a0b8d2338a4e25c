(* Synthetic benchmark generators (Workloads.Synth): every generated deck
   must be lint-clean, structurally sound and have exactly the unknown
   count its closed-form formula promises — and scheduling must never
   change its analysis results (seq = par bit-identical, manifests
   diff-clean). *)

(* Force real worker domains even on a single-core container: the
   production clamp would otherwise fold `Par` back to inline
   execution and the test would not exercise the scheduler at all. *)
let with_real_workers n f =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_oversubscribe true;
  Parallel.Pool.set_jobs n;
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.set_jobs saved;
      Parallel.Pool.set_oversubscribe false;
      Parallel.Pool.shutdown ())
    f

let unknowns circ = (Engine.Mna.compile circ).Engine.Mna.size

let well_formed name circ expected =
  let findings = Lint.Runner.run circ in
  if findings <> [] then
    QCheck.Test.fail_reportf "%s: %d lint finding(s), first: %s" name
      (List.length findings)
      (Format.asprintf "%a" (Lint.Rule.pp_finding ?file:None)
         (List.hd findings));
  (match Circuit.Topology.check circ with
   | [] -> ()
   | issue :: _ ->
     QCheck.Test.fail_reportf "%s: topology issue: %a" name
       Circuit.Topology.pp_issue issue);
  let got = unknowns circ in
  if got <> expected then
    QCheck.Test.fail_reportf "%s: %d unknowns, formula says %d" name got
      expected;
  true

(* ---------- qcheck: generator well-formedness ---------- *)

let prop_mesh_well_formed =
  QCheck.Test.make ~name:"rc_mesh lint-clean, connected, counted" ~count:25
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (rows, cols) ->
      well_formed
        (Printf.sprintf "mesh %dx%d" rows cols)
        (Workloads.Synth.rc_mesh ~rows ~cols ())
        (Workloads.Synth.mesh_unknowns ~rows ~cols))

let prop_tree_well_formed =
  QCheck.Test.make ~name:"rc_tree lint-clean, connected, counted" ~count:25
    QCheck.(pair (int_range 0 5) (int_range 1 3))
    (fun (depth, fanout) ->
      well_formed
        (Printf.sprintf "tree d%d f%d" depth fanout)
        (Workloads.Synth.rc_tree ~depth ~fanout ())
        (Workloads.Synth.tree_unknowns ~depth ~fanout))

let prop_amp_well_formed =
  QCheck.Test.make ~name:"amp_array lint-clean, connected, counted"
    ~count:20
    QCheck.(pair (int_range 1 8) (float_range 10. 1e4))
    (fun (stages, av) ->
      well_formed
        (Printf.sprintf "amp x%d av=%g" stages av)
        (Workloads.Synth.amp_array ~av ~stages ())
        (Workloads.Synth.amp_array_unknowns ~stages))

(* ---------- seq vs par: bit-identical node results ---------- *)

let fast_options parallel =
  { Stability.Analysis.default_options with
    sweep = Numerics.Sweep.decade 1e3 1e9 6;
    parallel }

let check_seq_par_identical name circ nodes =
  let seq =
    Stability.Analysis.all_nodes ~options:(fast_options `Seq) ~nodes circ
  in
  with_real_workers 4 (fun () ->
      let par =
        Stability.Analysis.all_nodes ~options:(fast_options `Par) ~nodes
          circ
      in
      Alcotest.(check bool)
        (name ^ ": par result count matches seq")
        true
        (List.length seq = List.length par);
      Alcotest.(check bool)
        (name ^ ": seq and par bit-identical")
        true (seq = par))

let test_mesh_seq_par () =
  let rows = 6 and cols = 6 in
  check_seq_par_identical "mesh 6x6"
    (Workloads.Synth.rc_mesh ~rows ~cols ())
    [ Workloads.Synth.mesh_node 0 0;
      Workloads.Synth.mesh_node 2 3;
      Workloads.Synth.mesh_node 5 5 ]

let test_tree_seq_par () =
  let depth = 4 and fanout = 2 in
  check_seq_par_identical "tree d4 f2"
    (Workloads.Synth.rc_tree ~depth ~fanout ())
    [ Workloads.Synth.tree_node 0;
      Workloads.Synth.tree_node 7;
      Workloads.Synth.tree_node (Workloads.Synth.tree_count ~depth ~fanout - 1) ]

let test_amp_seq_par () =
  let stages = 4 in
  check_seq_par_identical "amp x4"
    (Workloads.Synth.amp_array ~stages ())
    (List.init stages Workloads.Synth.amp_stage_out)

(* ---------- seq vs par: manifests diff-clean ---------- *)

(* Fresh caches on both sides: the run cache deliberately excludes the
   parallel mode from its fingerprint, so a shared cache would hand the
   second run the first run's results and prove nothing. *)
let manifest_for options name circ nodes =
  let cache = Tool.Cache.create () in
  let loaded =
    match
      Tool.Pipeline.load (Tool.Pipeline.Deck_circuit { name; circ })
    with
    | Ok l -> l
    | Error f -> Alcotest.failf "load %s: %s" name
                   (Tool.Pipeline.failure_message f)
  in
  let outcome =
    Tool.Pipeline.analyze_exn ~cache ~options loaded
      (Tool.Pipeline.All_nodes (Some nodes))
  in
  outcome.Tool.Pipeline.manifest

let check_manifests_clean name circ nodes =
  let m_seq = manifest_for (fast_options `Seq) name circ nodes in
  with_real_workers 4 (fun () ->
      let m_par = manifest_for (fast_options `Par) name circ nodes in
      let changes = Tool.Manifest.diff m_seq m_par in
      Alcotest.(check int)
        (name ^ ": manifest diff seq vs par clean")
        0 (List.length changes))

let test_mesh_manifest () =
  check_manifests_clean "synth_mesh_5x5"
    (Workloads.Synth.rc_mesh ~rows:5 ~cols:5 ())
    [ Workloads.Synth.mesh_node 0 0; Workloads.Synth.mesh_node 4 4 ]

let test_amp_manifest () =
  check_manifests_clean "synth_amp_3"
    (Workloads.Synth.amp_array ~stages:3 ())
    (List.init 3 Workloads.Synth.amp_stage_out)

(* ---------- fill-reducing order: fill and answers ---------- *)

(* The column order keeps LU fill near nnz(A) on the generator families,
   and Kernel.compile exports that fill: kernel.lu_nnz is nnz(L+U) of the
   schedule, kernel.lu_madds the multiply-adds of one refactorisation
   along it. *)
let test_lu_fill () =
  let gauge name =
    match Obs.Gauge.find name with
    | Some g -> Obs.Gauge.value g
    | None -> Float.nan
  in
  List.iter
    (fun (label, circ, bound) ->
      let probe = Stability.Probe.prepare circ in
      let plan =
        Engine.Ac_plan.compile ~op:probe.Stability.Probe.op
          probe.Stability.Probe.mna
      in
      ignore (Engine.Kernel.compile plan);
      let sch = Numerics.Scmat.schedule_of (Engine.Ac_plan.symbolic plan) in
      let len = Array.length in
      let total cols = Array.fold_left (fun a c -> a + len c) 0 cols in
      let nnz_lu = total sch.sched_l + total sch.sched_u in
      let madds =
        Array.fold_left
          (fun a u ->
            let s = ref a in
            for q = 0 to len u - 2 do
              s := !s + len sch.sched_l.(u.(q))
            done;
            !s)
          0 sch.sched_u
      in
      Alcotest.(check (float 0.)) (label ^ ": kernel.lu_nnz")
        (float_of_int nnz_lu) (gauge "kernel.lu_nnz");
      Alcotest.(check (float 0.)) (label ^ ": kernel.lu_madds")
        (float_of_int madds) (gauge "kernel.lu_madds");
      let fill =
        float_of_int nnz_lu /. float_of_int (Engine.Ac_plan.nnz plan)
      in
      if fill > bound then
        Alcotest.failf "%s: fill nnz(L+U)/nnz(A) = %.2f > %.1f" label fill
          bound)
    [ ("rc_tree depth 10", Workloads.Synth.rc_tree ~depth:10 ~fanout:2 (),
       1.5);
      ("rc_mesh 32x32", Workloads.Synth.rc_mesh ~rows:32 ~cols:32 (), 6.) ]

(* The reordered kernel answers like the dense oracle, within the
   tolerance `acstab diff` applies. *)
let check_matches_dense name circ nodes =
  let dense =
    manifest_for
      { (fast_options `Seq) with Stability.Analysis.backend = `Dense }
      name circ nodes
  in
  let kernel = manifest_for (fast_options `Seq) name circ nodes in
  Alcotest.(check (list string)) (name ^ ": acstab diff vs dense clean") []
    (List.map (Format.asprintf "%a" Tool.Manifest.pp_change)
       (Tool.Manifest.diff dense kernel))

let test_mesh_matches_dense () =
  check_matches_dense "synth_mesh_8x8"
    (Workloads.Synth.rc_mesh ~rows:8 ~cols:8 ())
    [ Workloads.Synth.mesh_node 0 0; Workloads.Synth.mesh_node 3 5;
      Workloads.Synth.mesh_node 7 7 ]

let test_amp_matches_dense () =
  check_matches_dense "synth_amp_6"
    (Workloads.Synth.amp_array ~stages:6 ())
    ("in" :: List.init 6 Workloads.Synth.amp_stage_out)

let () =
  Alcotest.run "synth"
    [ ( "well-formed",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mesh_well_formed; prop_tree_well_formed;
            prop_amp_well_formed ] );
      ( "seq-vs-par",
        [ Alcotest.test_case "mesh bit-identical" `Quick test_mesh_seq_par;
          Alcotest.test_case "tree bit-identical" `Quick test_tree_seq_par;
          Alcotest.test_case "amp bit-identical" `Quick test_amp_seq_par ] );
      ( "manifests",
        [ Alcotest.test_case "mesh diff-clean" `Quick test_mesh_manifest;
          Alcotest.test_case "amp diff-clean" `Quick test_amp_manifest ] );
      ( "fill",
        [ Alcotest.test_case "tree and mesh fill bounds" `Quick test_lu_fill;
          Alcotest.test_case "mesh matches dense oracle" `Quick
            test_mesh_matches_dense;
          Alcotest.test_case "amp matches dense oracle" `Quick
            test_amp_matches_dense ] ) ]
