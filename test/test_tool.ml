(* The tool layer: sessions, OCEAN scripting, calculator, jobs, corners,
   diagnostics. *)

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- session ---------- *)

let test_session_basics () =
  let s = Tool.Session.create ~name:"t" () in
  let s2 = Tool.Session.create () in
  Alcotest.(check bool) "unique ids" true
    (Tool.Session.id s <> Tool.Session.id s2);
  Tool.Session.set_design_variable s "a" 1.;
  Tool.Session.set_design_variable s "b" 2.;
  Tool.Session.set_design_variable s "a" 3.;
  Alcotest.(check (list (pair string (float 0.)))) "vars deduplicated"
    [ ("b", 2.); ("a", 3.) ]
    (Tool.Session.design_variables s)

let test_session_state_roundtrip () =
  let s = Tool.Session.create () in
  Tool.Session.set_simulator s "spectre";
  Tool.Session.set_temp s 85.;
  Tool.Session.set_scale s 2.5;
  Tool.Session.set_design_variable s "rload" 4.7e3;
  Tool.Session.add_analysis s
    (Tool.Session.Ac (Numerics.Sweep.decade 10. 1e6 25));
  Tool.Session.add_analysis s (Tool.Session.Stab_single "out");
  Tool.Session.add_analysis s (Tool.Session.Tran { tstop = 1e-3; tstep = 1e-6 });
  Tool.Session.add_analysis s
    (Tool.Session.Noise { sweep = Numerics.Sweep.decade 1e2 1e7 15;
                          output = "out" });
  Tool.Session.add_analysis s Tool.Session.Poles;
  let path = Filename.temp_file "session" ".state" in
  Tool.Session.save_state s path;
  let s2 = Tool.Session.create () in
  Tool.Session.load_state s2 path;
  Sys.remove path;
  Alcotest.(check string) "simulator" "spectre" (Tool.Session.simulator s2);
  check_close "temp" 85. (Tool.Session.temp s2);
  check_close "scale" 2.5 (Tool.Session.scale s2);
  check_close "variable" 4.7e3
    (List.assoc "rload" (Tool.Session.design_variables s2));
  Alcotest.(check int) "analyses count" 5
    (List.length (Tool.Session.analyses s2));
  match Tool.Session.analyses s2 with
  | [ Tool.Session.Ac _; Tool.Session.Stab_single "out";
      Tool.Session.Tran { tstop; tstep };
      Tool.Session.Noise { output = "out"; _ }; Tool.Session.Poles ] ->
    check_close "tstop" 1e-3 tstop;
    check_close "tstep" 1e-6 tstep
  | _ -> Alcotest.fail "analyses not restored in order"

(* A corrupt integer field (points-per-decade, linear point count) used
   to escape [load_state] as a bare [Failure "int_of_string"] — no file,
   no line. Every analysis form carrying an integer must now fail with
   the same located message the float fields always produced. *)
let test_session_bad_int_located () =
  let load_line line =
    let path = Filename.temp_file "session" ".state" in
    let oc = open_out path in
    output_string oc (line ^ "\n");
    close_out oc;
    let s = Tool.Session.create () in
    let outcome =
      match Tool.Session.load_state s path with
      | () -> None
      | exception Failure msg -> Some msg
    in
    Sys.remove path;
    outcome
  in
  List.iter
    (fun line ->
      match load_line line with
      | None -> Alcotest.failf "corrupt state line %S accepted" line
      | Some msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names the state file" line)
          true (contains msg "state file");
        Alcotest.(check bool)
          (Printf.sprintf "%S names the line" line)
          true (contains msg "line 1");
        Alcotest.(check bool)
          (Printf.sprintf "%S names the bad integer" line)
          true (contains msg "bad integer"))
    [ "analysis ac dec 1e3 1e9 bogus";
      "analysis ac lin 1e3 1e9 2.5";
      "analysis noise out dec 1e3 1e9 -" ];
  (* The valid spellings still parse. *)
  let path = Filename.temp_file "session" ".state" in
  let oc = open_out path in
  output_string oc "analysis ac dec 1e3 1e9 30\nanalysis ac lin 1 10 5\n";
  close_out oc;
  let s = Tool.Session.create () in
  Tool.Session.load_state s path;
  Sys.remove path;
  Alcotest.(check int) "valid integers accepted" 2
    (List.length (Tool.Session.analyses s))

(* ---------- ocean ---------- *)

let deck = {|divider bench
.param rtop=1k
V1 in 0 DC 10 AC 1
R1 in out {rtop}
R2 out 0 {rbot}
.end|}

let test_ocean_design_text_with_vars () =
  let s = Tool.Ocean.simulator "builtin" in
  Tool.Ocean.design_text s deck;
  Tool.Ocean.des_var s "rbot" 3e3;
  Tool.Ocean.analysis s Tool.Session.Op;
  let r = Tool.Ocean.run s in
  check_close "divider with desVar" 7.5 (Tool.Ocean.vdc r "out");
  (* Changing the variable and re-running re-elaborates. *)
  Tool.Ocean.des_var s "rbot" 1e3;
  let r2 = Tool.Ocean.run s in
  check_close "after desVar change" 5. (Tool.Ocean.vdc r2 "out")

let test_ocean_analyses () =
  let s = Tool.Ocean.simulator "builtin" in
  Tool.Ocean.design s (Workloads.Filters.parallel_rlc ());
  Tool.Ocean.analysis s
    (Tool.Session.Ac (Numerics.Sweep.decade 1e5 1e8 10));
  Tool.Ocean.analysis s (Tool.Session.Stab_single "n");
  let r = Tool.Ocean.run s in
  Alcotest.(check bool) "ac present" true (r.Tool.Ocean.ac <> None);
  Alcotest.(check int) "one stab result" 1 (List.length r.Tool.Ocean.stab);
  let report = Tool.Ocean.stab_report r in
  Alcotest.(check bool) "report built" true (contains report "Loop at")

let test_ocean_directives_fallback () =
  (* With no explicit analyses, directive cards in the deck drive the run. *)
  let s = Tool.Ocean.simulator "builtin" in
  Tool.Ocean.design_text s
    "bench\nV1 in 0 DC 2 AC 1\nR1 in out 1k\nR2 out 0 1k\n.op\n.ac dec 5 1 1meg\n.end\n";
  let r = Tool.Ocean.run s in
  check_close "op from directive" 1. (Tool.Ocean.vdc r "out");
  Alcotest.(check bool) "ac from directive" true (r.Tool.Ocean.ac <> None)

let test_ocean_temperature () =
  let s = Tool.Ocean.simulator "builtin" in
  Tool.Ocean.design s (Workloads.Bias_zero_tc.cell ~temp_c:85. ());
  Tool.Ocean.temperature s 85.;
  Tool.Ocean.analysis s Tool.Session.Op;
  let r = Tool.Ocean.run s in
  Alcotest.(check bool) "elaborated at 85C" true
    (Circuit.Netlist.temp_celsius r.Tool.Ocean.elaborated = 85.)

(* ---------- calculator ---------- *)

let test_calculator_ops () =
  let circ = Workloads.Filters.rc_lowpass () in
  let fc = Workloads.Filters.rc_lowpass_pole () in
  let ac =
    Engine.Ac.run ~sweep:(Numerics.Sweep.decade (fc /. 100.) (fc *. 100.) 40)
      circ
  in
  let w = Tool.Calculator.Freq (Engine.Ac.v ac "out") in
  check_close ~tol:1e-3 "db20 at fc"
    (-20. *. log10 (sqrt 2.))
    (Tool.Calculator.(value_at (db20 w) fc));
  check_close ~tol:1e-2 "phase at fc" (-45.)
    (Tool.Calculator.(value_at (phase_deg w) fc));
  (* -3 dB crossing of |H| is at fc. *)
  (match Tool.Calculator.cross (Tool.Calculator.mag w) (1. /. sqrt 2.) with
   | Some f -> check_close ~tol:1e-2 "crossing" fc f
   | None -> Alcotest.fail "no crossing");
  Alcotest.(check bool) "unknown op rejected" true
    (try ignore (Tool.Calculator.apply "nosuch" w); false
     with Invalid_argument _ -> true)

let test_calculator_stab_chain () =
  (* apply "stab" on the tank response = the analysis plot. *)
  let circ = Workloads.Filters.parallel_rlc () in
  let probe = Stability.Probe.prepare circ in
  let sweep = Numerics.Sweep.decade 1e5 1e8 100 in
  let resp = Stability.Probe.response probe ~sweep "n" in
  let via_calc = Tool.Calculator.apply "stab" (Tool.Calculator.Freq resp) in
  let fn, zeta = Workloads.Filters.parallel_rlc_theory () in
  check_close ~tol:3e-2 "stab op finds the peak"
    (Control.Second_order.performance_index zeta)
    (Tool.Calculator.value_at via_calc fn)

(* ---------- html report ---------- *)

let test_html_reports () =
  let circ = Workloads.Filters.parallel_rlc () in
  let results = Stability.Analysis.all_nodes circ in
  let html = Tool.Html_report.all_nodes circ results in
  Alcotest.(check bool) "has loop table" true (contains html "Loops (Table 2");
  Alcotest.(check bool) "has svg" true (contains html "<svg");
  Alcotest.(check bool) "has netlist" true (contains html "R1 n 0 100");
  let single = Tool.Html_report.single_node circ (List.hd results) in
  Alcotest.(check bool) "single has peaks table" true
    (contains single "Detected peaks");
  Alcotest.(check bool) "single has two plots" true
    (let rec count i acc =
       if i + 4 > String.length single then acc
       else if String.sub single i 4 = "<svg" then count (i + 4) (acc + 1)
       else count (i + 1) acc
     in
     count 0 0 = 2)

let test_calculator_group_delay () =
  (* One-pole RC: group delay at DC equals RC. *)
  let r = 1e3 and c = 1e-9 in
  let circ = Workloads.Filters.rc_lowpass ~r ~c () in
  let fc = Workloads.Filters.rc_lowpass_pole ~r ~c () in
  let ac =
    Engine.Ac.run ~sweep:(Numerics.Sweep.decade (fc /. 1e3) (fc *. 10.) 40)
      circ
  in
  let w = Tool.Calculator.Freq (Engine.Ac.v ac "out") in
  check_close ~tol:1e-3 "tg(0) = RC" (r *. c)
    (Tool.Calculator.(value_at (group_delay w) (fc /. 500.)));
  (* At the pole the delay halves. *)
  check_close ~tol:2e-2 "tg(fc) = RC/2" (r *. c /. 2.)
    (Tool.Calculator.(value_at (group_delay w) fc));
  (* real/imag split reassembles the magnitude. *)
  let re = Tool.Calculator.(value_at (apply "real" w) fc) in
  let im = Tool.Calculator.(value_at (apply "imag" w) fc) in
  check_close ~tol:1e-6 "sqrt(re^2+im^2) = |H(fc)|" (1. /. sqrt 2.)
    (sqrt ((re *. re) +. (im *. im)))

(* ---------- jobs ---------- *)

let test_jobs_sequential () =
  let outcomes =
    Tool.Job.run_all
      [ ("a", fun () -> 1); ("b", fun () -> 2); ("c", fun () -> 3) ]
  in
  Alcotest.(check (list int)) "in order" [ 1; 2; 3 ]
    (Tool.Job.results_exn outcomes)

let test_jobs_parallel_order_and_errors () =
  let jobs =
    List.init 12 (fun i ->
        ( Printf.sprintf "j%d" i,
          fun () -> if i = 7 then failwith "boom" else i * i ))
  in
  let outcomes = Tool.Job.run_all ~parallel:`Par jobs in
  Alcotest.(check int) "all came back" 12 (List.length outcomes);
  List.iteri
    (fun i (o : int Tool.Job.outcome) ->
      Alcotest.(check string) "submission order"
        (Printf.sprintf "j%d" i) o.Tool.Job.job_name;
      match o.Tool.Job.result with
      | Ok v -> Alcotest.(check int) "value" (i * i) v
      | Error _ -> Alcotest.(check int) "only job 7 fails" 7 i)
    outcomes

let test_jobs_parallel_simulations () =
  (* Real simulations across domains: per-temperature op of the bias cell. *)
  let temps = [ 0.; 27.; 85. ] in
  let jobs =
    List.map
      (fun t ->
        ( Printf.sprintf "%gC" t,
          fun () -> Workloads.Bias_zero_tc.reference_current ~temp_c:t () ))
      temps
  in
  let outcomes = Tool.Job.run_all ~parallel:`Par jobs in
  let currents = Tool.Job.results_exn outcomes in
  List.iter
    (fun i -> Alcotest.(check bool) "plausible" true (i > 20e-6 && i < 200e-6))
    currents

(* ---------- corners ---------- *)

let test_corners_apply () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let fast = Tool.Corners.apply Tool.Corners.fast circ in
  Alcotest.(check bool) "temp changed" true
    (Circuit.Netlist.temp_celsius fast = -40.);
  (match Circuit.Netlist.find_model fast "MN" with
   | Some m ->
     check_close "kp overridden" 120e-6
       (Circuit.Netlist.model_param m "kp" ~default:0.)
   | None -> Alcotest.fail "model MN missing");
  Alcotest.(check bool) "unknown model rejected" true
    (try
       ignore
         (Tool.Corners.apply
            (Tool.Corners.make ~models:[ ("NOPE", [ ("x", 1.) ]) ] "bad")
            circ);
       false
     with Invalid_argument _ -> true)

let test_corners_across () =
  (* Corners override transistor models, so the circuit must carry them. *)
  let circ = Workloads.Follower.emitter_follower () in
  let corners = [ Tool.Corners.typical; Tool.Corners.fast ] in
  let results =
    Tool.Corners.across corners circ (fun c ->
        let op = Engine.Dcop.solve (Engine.Mna.compile c) in
        Engine.Dcop.node_v op "out")
  in
  Alcotest.(check int) "both corners" 2 (List.length results);
  List.iter
    (fun (_, r) -> Alcotest.(check bool) "ran" true (Result.is_ok r))
    results

let test_temp_sweep () =
  let circ = Workloads.Filters.rc_lowpass () in
  let results =
    Tool.Corners.temp_sweep ~temps:[ 0.; 27.; 100. ] circ (fun c ->
        Circuit.Netlist.temp_celsius c)
  in
  Alcotest.(check (list (float 0.))) "temps propagated" [ 0.; 27.; 100. ]
    (List.map (fun (_, r) -> Result.get_ok r) results)

(* ---------- diagnostics ---------- *)

let test_diagnostics_guard () =
  let dir = Filename.get_temp_dir_name () in
  (match
     Tool.Diagnostics.guard ~operation:"ok op" ~report_dir:dir (fun () -> 42)
   with
   | Ok v -> Alcotest.(check int) "pass-through" 42 v
   | Error _ -> Alcotest.fail "spurious report");
  let s = Tool.Session.create ~name:"diag" () in
  Tool.Session.set_design_variable s "x" 1.;
  match
    Tool.Diagnostics.guard ~session:s ~operation:"failing op"
      ~report_dir:dir (fun () -> failwith "expected failure")
  with
  | Ok _ -> Alcotest.fail "should have failed"
  | Error r ->
    Alcotest.(check string) "operation recorded" "failing op"
      r.Tool.Diagnostics.operation;
    Alcotest.(check bool) "error captured" true
      (contains r.Tool.Diagnostics.error "expected failure");
    let text = Tool.Diagnostics.to_text r in
    Alcotest.(check bool) "session summarised" true (contains text "x=1")

(* ---------- sha256 ---------- *)

let test_sha256_vectors () =
  (* FIPS 180-4 test vectors. *)
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Tool.Sha256.digest "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Tool.Sha256.digest "abc");
  Alcotest.(check string) "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Tool.Sha256.digest
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Tool.Sha256.digest (String.make 1_000_000 'a'))

(* ---------- json ---------- *)

let test_json_roundtrip () =
  let open Tool.Json in
  let doc =
    Obj
      [ ("s", Str "he\"llo\n"); ("n", Num 1.5); ("i", Num 42.);
        ("t", Bool true); ("z", Null);
        ("a", Arr [ Num 1.; Num (-2.5e-3); Str "x" ]) ]
  in
  match of_string (to_string doc) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok back ->
    Alcotest.(check bool) "roundtrip equal" true (back = doc);
    (match member "a" back with
     | Some (Arr l) -> Alcotest.(check int) "array length" 3 (List.length l)
     | _ -> Alcotest.fail "member lookup");
    check_close "float accessor" 1.5
      (Option.get (Option.bind (member "n" back) to_float))

let test_json_errors () =
  let bad s =
    match Tool.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "truncated" true (bad "{\"a\": 1");
  Alcotest.(check bool) "trailing garbage" true (bad "1 2");
  Alcotest.(check bool) "bare word" true (bad "nope");
  Alcotest.(check bool) "non-finite rendered as null" true
    (Tool.Json.to_string (Tool.Json.Num Float.nan) = "null")

(* \u escapes: BMP code points decode to UTF-8, and non-BMP code points
   arrive as UTF-16 surrogate pairs (RFC 8259) that must combine into
   ONE code point. The decoder used to emit each surrogate half as its
   own 3-byte sequence — six bytes of invalid UTF-8 per emoji. *)
let test_json_unicode_escapes () =
  let dec s =
    match Tool.Json.of_string s with
    | Ok (Tool.Json.Str v) -> v
    | Ok _ -> Alcotest.failf "%S parsed to a non-string" s
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  Alcotest.(check string) "ASCII escape" "A" (dec "\"\\u0041\"");
  Alcotest.(check string) "2-byte code point" "\xc3\xa9" (dec "\"\\u00e9\"");
  Alcotest.(check string) "3-byte code point" "\xe2\x84\xa6"
    (dec "\"\\u2126\"");
  Alcotest.(check string) "surrogate pair is one 4-byte code point"
    "\xf0\x9f\x98\x80"
    (dec "\"\\ud83d\\ude00\"");
  Alcotest.(check string) "pair mid-string, neighbours intact" "a\xf0\x90\x80\x80b"
    (dec "\"a\\ud800\\udc00b\"");
  (* The encoder passes raw UTF-8 bytes through untouched, so a decoded
     pair survives a full round trip. *)
  let doc = Tool.Json.Str "\xf0\x9f\x98\x80 ok" in
  (match Tool.Json.of_string (Tool.Json.to_string doc) with
   | Ok back -> Alcotest.(check bool) "non-BMP round trip" true (back = doc)
   | Error e -> Alcotest.failf "round trip rejected: %s" e);
  let rejected s =
    match Tool.Json.of_string s with
    | Ok _ -> Alcotest.failf "%S accepted" s
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the surrogate" s)
        true (contains e "unpaired surrogate")
  in
  rejected "\"\\ud83d\"";            (* high surrogate at end of string *)
  rejected "\"\\ud83dx\"";           (* high followed by a plain char *)
  rejected "\"\\ud83d\\n\"";         (* high followed by another escape *)
  rejected "\"\\ud83d\\u0041\"";     (* high followed by a non-low escape *)
  rejected "\"\\ud800\\ud800\"";     (* high followed by another high *)
  rejected "\"\\ude00\""             (* lone low surrogate *)

(* ---------- manifests ---------- *)

let ladder_results () =
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e6 10 }
  in
  Stability.Analysis.all_nodes ~options (Workloads.Ladder.rc ~sections:4 ())

let build_manifest results =
  Tool.Manifest.build ~deck_file:"ladder.sp"
    ~deck_text:"* rc ladder deck text\n" ~circ:(Workloads.Ladder.rc ~sections:4 ())
    ~options:[ ("mode", "all-nodes") ] ~results ~wall_s:0.25 ~cpu_s:0.5 ()

let test_manifest_roundtrip () =
  let m = build_manifest (ladder_results ()) in
  Alcotest.(check string) "deck hash matches digest"
    (Tool.Sha256.digest "* rc ladder deck text\n") m.Tool.Manifest.deck_sha256;
  Alcotest.(check bool) "has nodes" true
    (List.length m.Tool.Manifest.nodes > 0);
  match Tool.Manifest.of_json_string (Tool.Manifest.to_json m) with
  | Error e -> Alcotest.failf "manifest did not reload: %s" e
  | Ok back ->
    Alcotest.(check string) "deck file" m.Tool.Manifest.deck_file
      back.Tool.Manifest.deck_file;
    Alcotest.(check string) "sha" m.Tool.Manifest.deck_sha256
      back.Tool.Manifest.deck_sha256;
    Alcotest.(check int) "node count"
      (List.length m.Tool.Manifest.nodes)
      (List.length back.Tool.Manifest.nodes);
    List.iter2
      (fun (a : Tool.Manifest.node_entry) (b : Tool.Manifest.node_entry) ->
        Alcotest.(check string) "node name" a.node b.node;
        Alcotest.(check string) "quality" a.quality b.quality;
        match (a.f_n, b.f_n) with
        | Some x, Some y -> check_close ~tol:1e-12 ("f_n " ^ a.node) x y
        | None, None -> ()
        | _ -> Alcotest.failf "f_n presence mismatch on %s" a.node)
      m.Tool.Manifest.nodes back.Tool.Manifest.nodes;
    Alcotest.(check (list string)) "histogram names"
      (List.map fst m.Tool.Manifest.histograms)
      (List.map fst back.Tool.Manifest.histograms)

(* Replace the first occurrence of [sub] in [s] with [by]. *)
let replace_once s sub by =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let test_manifest_diff () =
  let results = ladder_results () in
  let a = build_manifest results in
  Alcotest.(check int) "self-diff is empty" 0
    (List.length (Tool.Manifest.diff a a));
  (* Perturb one node's f_n beyond tolerance: must surface as Shifted. *)
  let perturb (e : Tool.Manifest.node_entry) =
    match e.f_n with
    | Some f when e.node = "n2" ->
      { e with Tool.Manifest.f_n = Some (f *. 1.01) }
    | _ -> e
  in
  let b = { a with Tool.Manifest.nodes = List.map perturb a.nodes } in
  let changes = Tool.Manifest.diff a b in
  Alcotest.(check bool) "perturbation detected" true
    (List.exists
       (function
         | Tool.Manifest.Shifted { node = "n2"; field = "f_n"; _ } -> true
         | _ -> false)
       changes);
  (* Within tolerance: no change. *)
  let tiny (e : Tool.Manifest.node_entry) =
    { e with Tool.Manifest.f_n = Option.map (fun f -> f *. (1. +. 1e-5)) e.f_n }
  in
  let c = { a with Tool.Manifest.nodes = List.map tiny a.nodes } in
  Alcotest.(check int) "sub-tolerance drift ignored" 0
    (List.length (Tool.Manifest.diff a c));
  (* Quality downgrade is a change; upgrade is not. *)
  let degrade (e : Tool.Manifest.node_entry) =
    if e.node = "n1" then { e with Tool.Manifest.quality = "suspect" } else e
  in
  let d = { a with Tool.Manifest.nodes = List.map degrade a.nodes } in
  Alcotest.(check bool) "downgrade detected" true
    (List.exists
       (function
         | Tool.Manifest.Downgraded { node = "n1"; to_ = "suspect"; _ } -> true
         | _ -> false)
       (Tool.Manifest.diff a d));
  Alcotest.(check int) "upgrade is not a change" 0
    (List.length (Tool.Manifest.diff d a));
  (* A node losing its dominant peak must surface as Removed_peak. *)
  let strip (e : Tool.Manifest.node_entry) =
    if e.node = "n3" then
      { e with Tool.Manifest.f_n = None; zeta = None;
               phase_margin_deg = None; peak = None }
    else e
  in
  let s = { a with Tool.Manifest.nodes = List.map strip a.nodes } in
  Alcotest.(check bool) "removed peak detected" true
    (List.exists
       (function
         | Tool.Manifest.Removed_peak "n3" -> true
         | _ -> false)
       (Tool.Manifest.diff a s))

let test_manifest_diff_json () =
  let a = build_manifest (ladder_results ()) in
  (* Self-comparison: the JSON must say "agree" with no changes. *)
  let j_ok = Tool.Manifest.diff_json ~a ~b:a (Tool.Manifest.diff a a) in
  Alcotest.(check (option string)) "schema" (Some "acstab-diff/1")
    (Tool.Json.mem_str "schema" j_ok);
  Alcotest.(check (option bool)) "agree" (Some true)
    (Tool.Json.mem_bool "agree" j_ok);
  Alcotest.(check (option bool)) "same deck" (Some true)
    (Tool.Json.mem_bool "same_deck" j_ok);
  Alcotest.(check (option int)) "nodes compared"
    (Some (List.length a.Tool.Manifest.nodes))
    (Tool.Json.mem_int "nodes_compared" j_ok);
  (* Shifted + downgraded + removed must each surface with its kind. *)
  let mutate (e : Tool.Manifest.node_entry) =
    match e.node with
    | "n2" -> { e with Tool.Manifest.f_n = Option.map (fun f -> f *. 1.01) e.f_n }
    | "n1" -> { e with Tool.Manifest.quality = "suspect" }
    | "n3" ->
      { e with Tool.Manifest.f_n = None; zeta = None;
               phase_margin_deg = None; peak = None }
    | _ -> e
  in
  let b = { a with Tool.Manifest.nodes = List.map mutate a.nodes } in
  let changes = Tool.Manifest.diff a b in
  let j = Tool.Manifest.diff_json ~a ~b changes in
  Alcotest.(check (option bool)) "disagree" (Some false)
    (Tool.Json.mem_bool "agree" j);
  let kinds =
    match Option.bind (Tool.Json.member "changes" j) Tool.Json.to_list with
    | Some l -> List.filter_map (Tool.Json.mem_str "kind") l
    | None -> []
  in
  Alcotest.(check int) "one JSON change per diff change"
    (List.length changes) (List.length kinds);
  List.iter
    (fun k ->
      Alcotest.(check bool) ("kind present: " ^ k) true (List.mem k kinds))
    [ "shifted"; "quality_downgraded"; "removed_peak" ];
  (* The document must round-trip through the parser. *)
  match Tool.Json.of_string (Tool.Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "diff JSON does not reparse: %s" e

(* ---------- cache + pipeline ---------- *)

let counter_value name =
  match List.assoc_opt name (Obs.Counter.snapshot ()) with
  | Some n -> n
  | None -> 0

let ladder_loaded ?sections () =
  let circ = Workloads.Ladder.rc ?sections () in
  match
    Tool.Pipeline.load ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
      (Tool.Pipeline.Deck_circuit { name = "rc_ladder"; circ })
  with
  | Ok l -> l
  | Error f ->
    Alcotest.failf "load failed: %s" (Tool.Pipeline.failure_message f)

let quick_options =
  { Stability.Analysis.default_options with
    sweep = Numerics.Sweep.decade 1e3 1e5 5 }

(* The cache contract the serve daemon relies on: a warm repeat of the
   same deck + options performs zero extra DC solves and zero extra
   symbolic analyses, and returns the identical manifest. *)
let test_pipeline_warm_hit () =
  let cache = Tool.Cache.create () in
  let loaded = ladder_loaded () in
  let run () =
    Tool.Pipeline.analyze_exn ~cache ~options:quick_options loaded
      (Tool.Pipeline.All_nodes None)
  in
  let o1 = run () in
  Alcotest.(check bool) "cold is a miss" true (o1.Tool.Pipeline.cache = `Miss);
  let dc = counter_value "dcop.solves"
  and sym = counter_value "acplan.symbolic" in
  let o2 = run () in
  Alcotest.(check bool) "warm is a hit" true (o2.Tool.Pipeline.cache = `Hit);
  Alcotest.(check int) "0 extra DC solves" dc (counter_value "dcop.solves");
  Alcotest.(check int) "0 extra symbolic analyses" sym
    (counter_value "acplan.symbolic");
  Alcotest.(check string) "identical manifest bytes"
    (Tool.Manifest.to_json o1.Tool.Pipeline.manifest)
    (Tool.Manifest.to_json o2.Tool.Pipeline.manifest)

(* The kernel cache family: a warm repeat compiles zero kernels, and a
   different request shape over the same deck + options (all-nodes,
   then one node) reuses the compiled kernel even though the result key
   differs. *)
let test_pipeline_kernel_warm () =
  let cache = Tool.Cache.create () in
  let loaded = ladder_loaded () in
  let analyze target =
    Tool.Pipeline.analyze_exn ~cache ~options:quick_options loaded target
  in
  let compiles = counter_value "kernel.compiles" in
  let o1 = analyze (Tool.Pipeline.All_nodes None) in
  Alcotest.(check bool) "cold is a miss" true (o1.Tool.Pipeline.cache = `Miss);
  Alcotest.(check int) "cold run compiled one kernel" (compiles + 1)
    (counter_value "kernel.compiles");
  let compiles = counter_value "kernel.compiles" in
  let o2 = analyze (Tool.Pipeline.All_nodes None) in
  Alcotest.(check bool) "warm is a hit" true (o2.Tool.Pipeline.cache = `Hit);
  Alcotest.(check int) "warm repeat compiles zero kernels" compiles
    (counter_value "kernel.compiles");
  Alcotest.(check string) "identical manifest bytes"
    (Tool.Manifest.to_json o1.Tool.Pipeline.manifest)
    (Tool.Manifest.to_json o2.Tool.Pipeline.manifest);
  (* New result key, same kernel key: the kernel family answers. *)
  let o3 = analyze (Tool.Pipeline.Single_node (Workloads.Ladder.last_node 20)) in
  Alcotest.(check bool) "different request is a result miss" true
    (o3.Tool.Pipeline.cache = `Miss);
  Alcotest.(check int) "single-node reuses the compiled kernel" compiles
    (counter_value "kernel.compiles");
  (* The dense oracle never touches the kernel family. *)
  let cache' = Tool.Cache.create () in
  ignore
    (Tool.Pipeline.analyze_exn ~cache:cache'
       ~options:{ quick_options with Stability.Analysis.backend = `Dense }
       loaded (Tool.Pipeline.All_nodes None));
  Alcotest.(check (list string)) "four families"
    [ "op"; "kernel"; "result"; "sfg" ]
    (List.map (fun fs -> fs.Tool.Cache.family) (Tool.Cache.stats cache'));
  match
    List.find_opt
      (fun fs -> fs.Tool.Cache.family = "kernel")
      (Tool.Cache.stats cache')
  with
  | Some fs ->
    Alcotest.(check int) "kernel family untouched by the dense oracle" 0
      fs.Tool.Cache.entries
  | None -> Alcotest.fail "kernel family missing from stats"

(* Invalidation is content addressing: a changed option is a different
   result key (but the operating point is reused), an edited deck is a
   different fingerprint (everything recomputes). *)
let test_pipeline_cache_keys () =
  let cache = Tool.Cache.create () in
  let loaded = ladder_loaded () in
  let analyze ~options loaded =
    Tool.Pipeline.analyze_exn ~cache ~options loaded
      (Tool.Pipeline.All_nodes None)
  in
  ignore (analyze ~options:quick_options loaded);
  let dc = counter_value "dcop.solves" in
  let wider =
    { quick_options with
      Stability.Analysis.sweep = Numerics.Sweep.decade 1e3 1e6 5 }
  in
  let o = analyze ~options:wider loaded in
  Alcotest.(check bool) "options change is a miss" true
    (o.Tool.Pipeline.cache = `Miss);
  Alcotest.(check int) "operating point reused across sweep change" dc
    (counter_value "dcop.solves");
  let loaded' = ladder_loaded ~sections:19 () in
  Alcotest.(check bool) "edited deck fingerprints differently" true
    (loaded.Tool.Pipeline.sha256 <> loaded'.Tool.Pipeline.sha256);
  let o' = analyze ~options:quick_options loaded' in
  Alcotest.(check bool) "edited deck is a miss" true
    (o'.Tool.Pipeline.cache = `Miss);
  Alcotest.(check bool) "edited deck re-solves DC" true
    (counter_value "dcop.solves" > dc)

let test_cache_eviction () =
  let c = Tool.Cache.create ~capacity:2 () in
  let m = build_manifest [] in
  let calls = ref 0 in
  let get k =
    snd
      (Tool.Cache.result c ~key:k (fun () ->
           incr calls;
           { Tool.Cache.results = []; manifest = m }))
  in
  Alcotest.(check bool) "cold miss" false (get "a");
  Alcotest.(check bool) "warm hit" true (get "a");
  Alcotest.(check bool) "b cold" false (get "b");
  Alcotest.(check bool) "c cold evicts LRU" false (get "c");
  Alcotest.(check bool) "evicted key recomputes" false (get "a");
  Alcotest.(check int) "compute count" 4 !calls;
  let entries =
    List.filter_map
      (fun (s : Tool.Cache.family_stats) ->
        if s.family = "result" then Some s.entries else None)
      (Tool.Cache.stats c)
  in
  Alcotest.(check (list int)) "capacity respected" [ 2 ] entries;
  Tool.Cache.clear c;
  Alcotest.(check bool) "clear forgets" false (get "c")

(* Pipeline failures are values carrying the CLI exit-code contract. *)
let test_pipeline_failures () =
  (match
     Tool.Pipeline.load
       (Tool.Pipeline.Deck_text { name = "bad.sp"; text = "* t\nR1 a\n.end\n" })
   with
   | Error (Tool.Pipeline.Parse_failed { message }) ->
     Alcotest.(check bool) "parse error names the deck" true
       (contains message "bad.sp")
   | _ -> Alcotest.fail "expected Parse_failed");
  (* A floating net is a lint error: blocked under the default policy,
     loadable under no_lint. *)
  let floating = "* t\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1p\nR9 x y 1k\n.end\n" in
  (match
     Tool.Pipeline.load (Tool.Pipeline.Deck_text { name = "f.sp"; text = floating })
   with
   | Error (Tool.Pipeline.Lint_blocked { findings }) ->
     Alcotest.(check bool) "findings travel with the block" true
       (findings <> []);
     Alcotest.(check int) "exit code 4" 4
       (Tool.Pipeline.exit_code (Tool.Pipeline.Lint_blocked { findings }))
   | Ok _ -> Alcotest.fail "lint gate should have blocked"
   | Error f ->
     Alcotest.failf "expected Lint_blocked, got: %s"
       (Tool.Pipeline.failure_message f));
  match
    Tool.Pipeline.load
      ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
      (Tool.Pipeline.Deck_text { name = "f.sp"; text = floating })
  with
  | Ok loaded ->
    Alcotest.(check bool) "no_lint runs no linter" true
      (loaded.Tool.Pipeline.findings = None)
  | Error f ->
    Alcotest.failf "no_lint load failed: %s" (Tool.Pipeline.failure_message f)

let test_manifest_load_errors () =
  Alcotest.(check bool) "not json" true
    (Result.is_error (Tool.Manifest.of_json_string "not json"));
  let json = Tool.Manifest.to_json (build_manifest (ladder_results ())) in
  Alcotest.(check bool) "wrong schema rejected" true
    (Result.is_error
       (Tool.Manifest.of_json_string
          (replace_once json Tool.Manifest.schema_version
             "acstab-manifest/99")));
  Alcotest.(check bool) "unknown quality grade rejected" true
    (Result.is_error
       (Tool.Manifest.of_json_string
          (replace_once json "\"quality\":\"good\"" "\"quality\":\"amazing\"")))

let () =
  Alcotest.run "tool"
    [ ("session",
       [ Alcotest.test_case "basics" `Quick test_session_basics;
         Alcotest.test_case "state roundtrip" `Quick
           test_session_state_roundtrip;
         Alcotest.test_case "bad integers fail located" `Quick
           test_session_bad_int_located ]);
      ("ocean",
       [ Alcotest.test_case "design text + desVar" `Quick
           test_ocean_design_text_with_vars;
         Alcotest.test_case "analyses" `Quick test_ocean_analyses;
         Alcotest.test_case "directive fallback" `Quick
           test_ocean_directives_fallback;
         Alcotest.test_case "temperature" `Quick test_ocean_temperature ]);
      ("calculator",
       [ Alcotest.test_case "basic ops" `Quick test_calculator_ops;
         Alcotest.test_case "stab chain" `Quick test_calculator_stab_chain;
         Alcotest.test_case "group delay, real/imag" `Quick
           test_calculator_group_delay ]);
      ("html",
       [ Alcotest.test_case "reports render" `Quick test_html_reports ]);
      ("jobs",
       [ Alcotest.test_case "sequential" `Quick test_jobs_sequential;
         Alcotest.test_case "parallel order and errors" `Quick
           test_jobs_parallel_order_and_errors;
         Alcotest.test_case "parallel simulations" `Quick
           test_jobs_parallel_simulations ]);
      ("corners",
       [ Alcotest.test_case "apply" `Quick test_corners_apply;
         Alcotest.test_case "across" `Quick test_corners_across;
         Alcotest.test_case "temp sweep" `Quick test_temp_sweep ]);
      ("diagnostics",
       [ Alcotest.test_case "guard" `Quick test_diagnostics_guard ]);
      ("sha256",
       [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors ]);
      ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "errors" `Quick test_json_errors;
         Alcotest.test_case "unicode escapes" `Quick
           test_json_unicode_escapes ]);
      ("manifest",
       [ Alcotest.test_case "build/load roundtrip" `Quick
           test_manifest_roundtrip;
         Alcotest.test_case "diff semantics" `Quick test_manifest_diff;
         Alcotest.test_case "diff JSON" `Quick test_manifest_diff_json;
         Alcotest.test_case "load errors" `Quick
           test_manifest_load_errors ]);
      ("cache",
       [ Alcotest.test_case "warm hit re-solves nothing" `Quick
           test_pipeline_warm_hit;
         Alcotest.test_case "key granularity" `Quick
           test_pipeline_cache_keys;
         Alcotest.test_case "kernel family warm reuse" `Quick
           test_pipeline_kernel_warm;
         Alcotest.test_case "LRU eviction" `Quick test_cache_eviction ]);
      ("pipeline",
       [ Alcotest.test_case "failures as values" `Quick
           test_pipeline_failures ]) ]
