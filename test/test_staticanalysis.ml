(* Static signal-flow analysis: Johnson's cycle enumeration against a
   brute-force oracle, probe-cover completeness on synthetic and shipped
   fixtures, deterministic loop reports, the pipeline's sfg cache family
   (warm repeat = zero graph rebuilds), --nodes auto peak equivalence,
   and the manifest loops section with its diff gating. *)

let parse s = Circuit.Parser.parse_string s

let counter_value name =
  match Obs.Counter.find name with
  | Some c -> Obs.Counter.value c
  | None -> 0

(* ---------- Johnson vs brute force ---------- *)

(* Oracle: every elementary cycle, canonicalized exactly like
   [Cycles.enumerate] — rotated to its minimum vertex, list sorted
   lexicographically. For each start vertex s (the cycle minimum) walk
   simple paths through vertices > s only; an edge back to s closes a
   cycle. Exponential, fine at n <= 8. *)
let brute_cycles adj =
  let n = Array.length adj in
  let adj = Array.map (List.sort_uniq compare) adj in
  let out = ref [] in
  for s = 0 to n - 1 do
    let on_path = Array.make n false in
    let rec walk v path =
      List.iter
        (fun w ->
          if w = s then out := List.rev path :: !out
          else if w > s && not on_path.(w) then begin
            on_path.(w) <- true;
            walk w (w :: path);
            on_path.(w) <- false
          end)
        adj.(v)
    in
    on_path.(s) <- true;
    walk s [ s ];
    on_path.(s) <- false
  done;
  List.sort compare !out

(* Deterministic random digraph on [n] vertices (self-loops allowed);
   density varies with the seed so sparse and dense-ish graphs both
   appear. *)
let random_graph n seed =
  let st = Random.State.make [| seed; n; 0x5f6 |] in
  let p = 0.15 +. (float_of_int (seed mod 7) *. 0.05) in
  Array.init n (fun _ ->
      List.filter
        (fun _ -> Random.State.float st 1.0 < p)
        (List.init n Fun.id))

(* [random_graph] padded the ways signal-flow graphs are: isolated
   vertices below it, so its cycles sit at high indices, and above it a
   bidirectional chain (an SCC of two-cycles, like a passive RC path)
   fed one way from the random part. *)
let padded_graph n seed =
  let iso = seed mod 5 and chain = 2 + (seed / 5 mod 3) in
  let adj = Array.make (iso + n + chain) [] in
  Array.iteri
    (fun v ws -> adj.(iso + v) <- List.map (( + ) iso) ws)
    (random_graph n seed);
  let c0 = iso + n in
  for k = 0 to chain - 2 do
    adj.(c0 + k) <- (c0 + k + 1) :: adj.(c0 + k);
    adj.(c0 + k + 1) <- (c0 + k) :: adj.(c0 + k + 1)
  done;
  adj.(iso) <- c0 :: adj.(iso);
  adj

let prop_johnson_vs_brute =
  QCheck.Test.make
    ~name:"Johnson's enumeration agrees with brute force (n <= 8)"
    ~count:300
    QCheck.(pair (int_range 1 8) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let adj =
        if seed mod 2 = 0 then random_graph n seed else padded_graph n seed
      in
      let bounds = { Staticanalysis.Cycles.max_len = Array.length adj;
                     max_cycles = 100_000 } in
      let cycles, truncated = Staticanalysis.Cycles.enumerate ~bounds adj in
      (not truncated) && cycles = brute_cycles adj)

(* The search before it was restricted to components: for every start s,
   an SCC pass over the whole subgraph on {v >= s}, then Johnson's
   blocked search inside s's component. Quadratic in the graph; kept as
   the reference whose cycles and truncation flag the restricted search
   must reproduce exactly under any bounds. *)
let reference_enumerate ~(bounds : Staticanalysis.Cycles.bounds) adj =
  let n = Array.length adj in
  let adj = Array.map (List.sort_uniq compare) adj in
  let cycles = ref [] and count = ref 0 and truncated = ref false in
  for s = 0 to n - 1 do
    let sub =
      Array.mapi
        (fun v ws -> if v < s then [] else List.filter (fun w -> w >= s) ws)
        adj
    in
    let label = Staticanalysis.Cycles.sccs sub in
    let in_comp = Array.map (fun l -> l = label.(s)) label in
    if List.exists (fun w -> in_comp.(w)) sub.(s) then begin
      if !count >= bounds.max_cycles then truncated := true
      else begin
        let blocked = Array.make n false and bsets = Array.make n [] in
        let path = ref [] in
        let rec unblock v =
          if blocked.(v) then begin
            blocked.(v) <- false;
            let bs = bsets.(v) in
            bsets.(v) <- [];
            List.iter unblock bs
          end
        in
        let rec circuit v depth =
          let found = ref false in
          path := v :: !path;
          blocked.(v) <- true;
          List.iter
            (fun w ->
              if in_comp.(w) then begin
                if !count >= bounds.max_cycles then begin
                  truncated := true;
                  found := true
                end
                else if w = s then begin
                  cycles := List.rev !path :: !cycles;
                  incr count;
                  found := true
                end
                else if not blocked.(w) then begin
                  if depth >= bounds.max_len then begin
                    truncated := true;
                    found := true
                  end
                  else if circuit w (depth + 1) then found := true
                end
              end)
            sub.(v);
          if !found then unblock v
          else
            List.iter
              (fun w ->
                if in_comp.(w) && not (List.mem v bsets.(w)) then
                  bsets.(w) <- v :: bsets.(w))
              sub.(v);
          path := List.tl !path;
          !found
        in
        ignore (circuit s 1)
      end
    end
  done;
  (List.sort compare !cycles, !truncated)

let prop_truncation_matches_reference =
  QCheck.Test.make
    ~name:"bounded runs: same cycles and flag as the unrestricted search"
    ~count:300
    QCheck.(
      quad (int_range 1 8) (int_range 0 1_000_000) (int_range 1 30)
        (int_range 1 6))
    (fun (n, seed, max_cycles, max_len) ->
      let adj =
        if seed mod 2 = 0 then random_graph n seed else padded_graph n seed
      in
      let bounds = { Staticanalysis.Cycles.max_len; max_cycles } in
      Staticanalysis.Cycles.enumerate ~bounds adj
      = reference_enumerate ~bounds adj)

let test_cycles_bounds () =
  (* A complete digraph on 6 vertices has 409 elementary cycles; a
     max_cycles bound below that must truncate yet still report
     cycles, and a short max_len must drop only the long ones. *)
  let k6 = Array.init 6 (fun i -> List.filter (( <> ) i) (List.init 6 Fun.id)) in
  let all, tr = Staticanalysis.Cycles.enumerate k6 in
  Alcotest.(check bool) "k6 within default bounds" false tr;
  Alcotest.(check int) "k6 cycle count" 409 (List.length all);
  let capped, tr' =
    Staticanalysis.Cycles.enumerate
      ~bounds:{ max_len = 16; max_cycles = 100 } k6
  in
  Alcotest.(check bool) "cap reported as truncation" true tr';
  Alcotest.(check int) "cap respected" 100 (List.length capped);
  let short, tr'' =
    Staticanalysis.Cycles.enumerate
      ~bounds:{ max_len = 2; max_cycles = 100_000 } k6
  in
  Alcotest.(check bool) "length bound reported" true tr'';
  Alcotest.(check bool) "only pairs survive" true
    (List.for_all (fun c -> List.length c <= 2) short);
  Alcotest.(check int) "all 15 two-cycles present" 15 (List.length short)

(* ---------- probe cover hits every loop ---------- *)

let check_cover_hits_all label (r : Staticanalysis.Report.t) =
  List.iter
    (fun (l : Staticanalysis.Report.loop) ->
      if l.probeable = [] then
        Alcotest.(check bool)
          (Printf.sprintf "%s: unprobeable loop %s listed uncovered" label
             l.id)
          true
          (List.exists
             (fun (u : Staticanalysis.Report.loop) -> u.id = l.id)
             r.uncovered)
      else
        match Staticanalysis.Report.covers r l with
        | None -> Alcotest.failf "%s: loop %s not hit by the cover" label l.id
        | Some n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: net %s covering %s is a probeable member"
               label n l.id)
            true
            (List.mem n r.cover && List.mem n l.probeable))
    r.loops

let ladder_deck =
  {|* active ladder: three gm stages, each with local resistive feedback
VIN n0 0 DC 0 AC 1
R0 n0 n1 1k
G1 n2 0 n1 0 1m
RF1 n2 n1 10k
G2 n3 0 n2 0 1m
RF2 n3 n2 10k
G3 n4 0 n3 0 1m
RF3 n4 n3 10k
RL n4 0 1k
.end
|}

let test_cover_ladder () =
  let r = Staticanalysis.Report.analyze (parse ladder_deck) in
  Alcotest.(check (list string)) "three stage loops"
    [ "n1>n2"; "n2>n3"; "n3>n4" ]
    (List.map (fun (l : Staticanalysis.Report.loop) -> l.id) r.loops);
  Alcotest.(check (list string)) "greedy cover" [ "n2"; "n3" ] r.cover;
  check_cover_hits_all "ladder" r

let mesh_deck =
  {|* gm mesh: a 2-cycle nested inside a 3-ring
GAB b 0 a 0 1m
GBA a 0 b 0 1m
GBC c 0 b 0 1m
GCA a 0 c 0 1m
RA a 0 1k
RB b 0 1k
RC c 0 1k
.end
|}

let test_cover_mesh () =
  let r = Staticanalysis.Report.analyze (parse mesh_deck) in
  Alcotest.(check (list string)) "ring outranks the pair (gain order)"
    [ "a>b>c"; "a>b" ]
    (List.map (fun (l : Staticanalysis.Report.loop) -> l.id) r.loops);
  Alcotest.(check (list int)) "gain orders" [ 3; 2 ]
    (List.map (fun (l : Staticanalysis.Report.loop) -> l.gain_order) r.loops);
  Alcotest.(check (list string)) "one shared net covers both" [ "a" ] r.cover;
  check_cover_hits_all "mesh" r

let shipped =
  [ "double_tuned.sp"; "emitter_follower.sp"; "rlc_tank.sp";
    "sallen_key.sp"; "two_pole_loop.sp"; "wilson_mirror.sp" ]

let analyze_shipped name =
  Staticanalysis.Report.analyze
    (Circuit.Parser.parse_file (Filename.concat "../circuits" name))

let test_cover_shipped () =
  List.iter (fun name -> check_cover_hits_all name (analyze_shipped name))
    shipped

(* ---------- deterministic reports on the shipped decks ---------- *)

let test_two_pole_loop_report () =
  let r = analyze_shipped "two_pole_loop.sp" in
  (match r.loops with
   | [ l ] ->
     Alcotest.(check string) "loop id" "fb>x1>x2>x2b>x3" l.id;
     Alcotest.(check string) "global loop" "global"
       (Staticanalysis.Report.kind_string l.kind);
     Alcotest.(check int) "gain order" 2 l.gain_order;
     Alcotest.(check (list string)) "member devices"
       [ "EAMP"; "EBUF"; "R1"; "R2"; "RFB" ] l.devices
   | ls -> Alcotest.failf "expected exactly one loop, got %d" (List.length ls));
  Alcotest.(check (list string)) "cover is the summing node" [ "fb" ] r.cover;
  Alcotest.(check bool) "not truncated" false r.truncated;
  Alcotest.(check (option (list string))) "everything drivable" (Some [])
    r.undrivable;
  Alcotest.(check (list string)) "no open gain" [] r.open_gain;
  (* Determinism: a second analysis of the same parse is identical. *)
  let r' = analyze_shipped "two_pole_loop.sp" in
  Alcotest.(check (list string)) "stable ids"
    (List.map (fun (l : Staticanalysis.Report.loop) -> l.id) r.loops)
    (List.map (fun (l : Staticanalysis.Report.loop) -> l.id) r'.loops)

let test_sallen_key_report () =
  let r = analyze_shipped "sallen_key.sp" in
  (match r.loops with
   | [ l ] ->
     Alcotest.(check string) "loop id" "out>x1>x2" l.id;
     Alcotest.(check string) "global loop" "global"
       (Staticanalysis.Report.kind_string l.kind);
     Alcotest.(check (list string)) "probeable members (out is pinned)"
       [ "x1"; "x2" ] l.probeable
   | ls -> Alcotest.failf "expected exactly one loop, got %d" (List.length ls));
  Alcotest.(check (list string)) "cover" [ "x1" ] r.cover

let test_follower_and_tank () =
  let ef = analyze_shipped "emitter_follower.sp" in
  (match ef.loops with
   | [ l ] ->
     Alcotest.(check string) "follower loop id" "b>out" l.id;
     Alcotest.(check string) "confined to Q1" "local:Q1"
       (Staticanalysis.Report.kind_string l.kind)
   | ls ->
     Alcotest.failf "follower: expected one loop, got %d" (List.length ls));
  let tank = analyze_shipped "rlc_tank.sp" in
  Alcotest.(check int) "tank has no feedback loops" 0
    (List.length tank.loops);
  (* The bare tanks are autonomous fixtures: no independent source, so
     reachability is skipped rather than flagging every net. *)
  Alcotest.(check (option (list string)))
    "source-free tank skips reachability" None tank.undrivable;
  let dt = analyze_shipped "double_tuned.sp" in
  Alcotest.(check (option (list string)))
    "source-free coupled tanks skip reachability" None dt.undrivable

(* ---------- reachability: undrivable islands ---------- *)

let island_deck =
  {|* driven RC plus an island only a VCCS output can reach
VIN in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
G1 x 0 y 0 1m
R2 y 0 1k
R3 x 0 1k
.end
|}

let test_undrivable_island () =
  let r = Staticanalysis.Report.analyze (parse island_deck) in
  Alcotest.(check (option (list string))) "island nets undrivable"
    (Some [ "x"; "y" ]) r.undrivable;
  Alcotest.(check (list string)) "the island VCCS runs open-loop" [ "G1" ]
    r.open_gain

(* ---------- pipeline: sfg cache family ---------- *)

let load_deck file =
  match
    Tool.Pipeline.load ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
      (Tool.Pipeline.Deck_file file)
  with
  | Ok l -> l
  | Error f ->
    Alcotest.failf "load failed: %s" (Tool.Pipeline.failure_message f)

let loop_options =
  { Stability.Analysis.default_options with
    sweep = Numerics.Sweep.decade 1e2 1e8 20 }

(* The acceptance contract: a warm repeat of `acstab loops` performs
   zero graph rebuilds, visible through the sfg.builds counter and the
   cache.sfg.* family counters. *)
let test_static_report_warm () =
  let cache = Tool.Cache.create () in
  let loaded = load_deck "../circuits/two_pole_loop.sp" in
  let builds = counter_value "sfg.builds" in
  let hits = counter_value "cache.sfg.hits" in
  let misses = counter_value "cache.sfg.misses" in
  let r1, h1 = Tool.Pipeline.static_report ~cache loaded in
  Alcotest.(check bool) "cold is a miss" false h1;
  Alcotest.(check int) "cold builds the graph once" (builds + 1)
    (counter_value "sfg.builds");
  Alcotest.(check int) "cache.sfg.misses bumped" (misses + 1)
    (counter_value "cache.sfg.misses");
  let r2, h2 = Tool.Pipeline.static_report ~cache loaded in
  Alcotest.(check bool) "warm is a hit" true h2;
  Alcotest.(check int) "warm repeat: zero graph rebuilds" (builds + 1)
    (counter_value "sfg.builds");
  Alcotest.(check int) "cache.sfg.hits bumped" (hits + 1)
    (counter_value "cache.sfg.hits");
  Alcotest.(check bool) "the very same report" true (r1 == r2);
  (* Different bounds are a different key: a rebuild, not a hit. *)
  let bounds = { Staticanalysis.Cycles.max_len = 4; max_cycles = 8 } in
  let _, h3 = Tool.Pipeline.static_report ~cache ~bounds loaded in
  Alcotest.(check bool) "changed bounds miss" false h3;
  Alcotest.(check int) "changed bounds rebuild" (builds + 2)
    (counter_value "sfg.builds");
  (* The family is visible in the cache stats. *)
  let sfg =
    List.find
      (fun (s : Tool.Cache.family_stats) -> s.family = "sfg")
      (Tool.Cache.stats cache)
  in
  Alcotest.(check int) "two sfg entries resident" 2 sfg.entries;
  (* One static report per deck: a cold all-nodes run — lint gate,
     analysis and manifest — builds the graph once and lints once, and
     --no-lint still records the linter's findings from that one build. *)
  let cold policy =
    let builds = counter_value "sfg.builds"
    and lints = counter_value "lint.runs" in
    match
      Tool.Pipeline.run ~cache:(Tool.Cache.create ())
        (Tool.Pipeline.request ~options:loop_options ~policy
           (Tool.Pipeline.Deck_file "../circuits/two_pole_loop.sp")
           (Tool.Pipeline.All_nodes None))
    with
    | Error f -> Alcotest.fail (Tool.Pipeline.failure_message f)
    | Ok o ->
      Alcotest.(check int) "cold run builds the graph once" (builds + 1)
        (counter_value "sfg.builds");
      Alcotest.(check int) "cold run lints once" (lints + 1)
        (counter_value "lint.runs");
      o.Tool.Pipeline.manifest.Tool.Manifest.lint
  in
  let gated = cold Tool.Pipeline.default_lint_policy in
  let ungated = cold { Tool.Pipeline.no_lint = true; strict = false } in
  Alcotest.(check string) "--no-lint manifest records the same lint report"
    (Tool.Json.to_string gated) (Tool.Json.to_string ungated)

(* ---------- --nodes auto: cover-only run matches all-nodes ---------- *)

let test_auto_matches_all file =
  let cache = Tool.Cache.create () in
  let loaded = load_deck file in
  let auto =
    Tool.Pipeline.analyze_exn ~cache ~options:loop_options loaded
      Tool.Pipeline.Auto_nodes
  in
  let all =
    Tool.Pipeline.analyze_exn ~cache ~options:loop_options loaded
      (Tool.Pipeline.All_nodes None)
  in
  let report, _ = Tool.Pipeline.static_report ~cache loaded in
  Alcotest.(check (list string)) "auto probes exactly the cover"
    (List.sort compare report.Staticanalysis.Report.cover)
    (List.sort compare
       (List.map
          (fun (r : Stability.Analysis.node_result) -> r.node)
          auto.Tool.Pipeline.results));
  Alcotest.(check bool) "auto probes fewer nets" true
    (List.length auto.Tool.Pipeline.results
     < List.length all.Tool.Pipeline.results);
  Alcotest.(check bool) "manifest records nodes=auto" true
    (List.mem ("nodes", "auto")
       auto.Tool.Pipeline.manifest.Tool.Manifest.options);
  let clusters o = Stability.Loops.cluster o.Tool.Pipeline.results in
  let ca = clusters auto and cb = clusters all in
  Alcotest.(check bool) "auto finds peaks" true (ca <> []);
  List.iter
    (fun (la : Stability.Loops.loop) ->
      match
        List.find_opt
          (fun (lb : Stability.Loops.loop) ->
            Float.abs ((lb.natural_freq /. la.natural_freq) -. 1.) < 0.01)
          cb
      with
      | None ->
        Alcotest.failf "auto peak at %.4g Hz missing from all-nodes"
          la.natural_freq
      | Some lb -> (
        match
          (la.worst.peak.Stability.Peaks.zeta,
           lb.worst.peak.Stability.Peaks.zeta)
        with
        | Some za, Some zb ->
          Alcotest.(check bool)
            (Printf.sprintf "zeta agrees at %.4g Hz (%g vs %g)"
               la.natural_freq za zb)
            true
            (Float.abs ((za /. zb) -. 1.) < 0.05)
        | _ -> ()))
    ca

let test_auto_two_pole () = test_auto_matches_all "../circuits/two_pole_loop.sp"
let test_auto_sallen_key () = test_auto_matches_all "../circuits/sallen_key.sp"

(* No coverable loops -> auto falls back to every net. *)
let test_auto_fallback () =
  let cache = Tool.Cache.create () in
  let loaded = load_deck "../circuits/rlc_tank.sp" in
  let nodes o =
    List.sort compare
      (List.map
         (fun (r : Stability.Analysis.node_result) -> r.node)
         o.Tool.Pipeline.results)
  in
  let auto =
    Tool.Pipeline.analyze_exn ~cache ~options:loop_options loaded
      Tool.Pipeline.Auto_nodes
  in
  let all =
    Tool.Pipeline.analyze_exn ~cache ~options:loop_options loaded
      (Tool.Pipeline.All_nodes None)
  in
  Alcotest.(check (list string)) "loop-free deck: auto = all nets"
    (nodes all) (nodes auto)

(* ---------- manifest loops section + diff gating ---------- *)

let manifest_with_loops () =
  let cache = Tool.Cache.create () in
  let loaded = load_deck "../circuits/two_pole_loop.sp" in
  Tool.Pipeline.manifest_of ~cache loaded ~options:[] ~results:[] ~wall_s:0.
    ~cpu_s:0.

let test_manifest_loops_roundtrip () =
  let m = manifest_with_loops () in
  let section =
    match m.Tool.Manifest.loops with
    | Some s -> s
    | None -> Alcotest.fail "manifest carries no loops section"
  in
  Alcotest.(check (list string)) "recorded loop ids"
    [ "fb>x1>x2>x2b>x3" ]
    (List.map
       (fun (l : Tool.Manifest.loop_record) -> l.loop_id)
       section.loop_list);
  Alcotest.(check (list string)) "recorded cover" [ "fb" ]
    section.Tool.Manifest.cover;
  match Tool.Manifest.of_json_string (Tool.Manifest.to_json m) with
  | Error e -> Alcotest.failf "manifest round-trip failed: %s" e
  | Ok back ->
    let ids (s : Tool.Manifest.loops_section option) =
      match s with
      | None -> None
      | Some s ->
        Some
          (List.map
             (fun (l : Tool.Manifest.loop_record) ->
               (l.loop_id, l.loop_kind, l.loop_gain_order, l.loop_nets))
             s.loop_list,
           s.cover, s.loops_truncated)
    in
    Alcotest.(check bool) "loops survive the round trip" true
      (ids m.Tool.Manifest.loops = ids back.Tool.Manifest.loops)

let has_change p changes = List.exists p changes

let test_manifest_loop_gating () =
  let m = manifest_with_loops () in
  let section = Option.get m.Tool.Manifest.loops in
  let dropped =
    { m with Tool.Manifest.loops = Some { section with loop_list = [] } }
  in
  Alcotest.(check bool) "disappearing loop is a regression" true
    (has_change
       (function
         | Tool.Manifest.Loop_removed "fb>x1>x2>x2b>x3" -> true
         | _ -> false)
       (Tool.Manifest.diff m dropped));
  Alcotest.(check bool) "appearing loop is reported" true
    (has_change
       (function
         | Tool.Manifest.Loop_added "fb>x1>x2>x2b>x3" -> true
         | _ -> false)
       (Tool.Manifest.diff dropped m));
  (* References written before static analysis existed gate nothing. *)
  let legacy = { m with Tool.Manifest.loops = None } in
  Alcotest.(check int) "legacy reference: no loop gating" 0
    (List.length (Tool.Manifest.diff legacy m));
  Alcotest.(check int) "legacy candidate: no loop gating" 0
    (List.length (Tool.Manifest.diff m legacy))

(* ---------- loops report schema ---------- *)

let test_loops_report_json () =
  let cache = Tool.Cache.create () in
  let loaded = load_deck "../circuits/sallen_key.sp" in
  let report, _ = Tool.Pipeline.static_report ~cache loaded in
  let j =
    Tool.Json.to_string
      (Tool.Loops_report.json ~deck:"sallen_key.sp"
         ~sha256:loaded.Tool.Pipeline.sha256 report)
  in
  let contains needle =
    let ln = String.length needle and lj = String.length j in
    let rec go i = i + ln <= lj && (String.sub j i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema tag" true
    (contains "\"schema\":\"acstab-loops/1\"");
  Alcotest.(check bool) "loop id present" true (contains "out>x1>x2");
  Alcotest.(check bool) "cover present" true (contains "\"cover\":[\"x1\"]")

let () =
  Alcotest.run "staticanalysis"
    [ ( "cycles",
        Alcotest.test_case "enumeration bounds" `Quick test_cycles_bounds
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_johnson_vs_brute; prop_truncation_matches_reference ] );
      ( "cover",
        [ Alcotest.test_case "ladder" `Quick test_cover_ladder;
          Alcotest.test_case "mesh" `Quick test_cover_mesh;
          Alcotest.test_case "shipped circuits" `Quick test_cover_shipped ] );
      ( "reports",
        [ Alcotest.test_case "two_pole_loop" `Quick test_two_pole_loop_report;
          Alcotest.test_case "sallen_key" `Quick test_sallen_key_report;
          Alcotest.test_case "follower and tanks" `Quick
            test_follower_and_tank;
          Alcotest.test_case "undrivable island" `Quick
            test_undrivable_island ] );
      ( "pipeline",
        [ Alcotest.test_case "warm repeat rebuilds nothing" `Quick
            test_static_report_warm;
          Alcotest.test_case "auto nodes: two_pole_loop" `Quick
            test_auto_two_pole;
          Alcotest.test_case "auto nodes: sallen_key" `Quick
            test_auto_sallen_key;
          Alcotest.test_case "auto nodes: loop-free fallback" `Quick
            test_auto_fallback ] );
      ( "manifest",
        [ Alcotest.test_case "loops section round-trip" `Quick
            test_manifest_loops_roundtrip;
          Alcotest.test_case "diff gating" `Quick test_manifest_loop_gating;
          Alcotest.test_case "acstab-loops/1 json" `Quick
            test_loops_report_json ] ) ]
