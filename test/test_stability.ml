(* The stability library — the paper's contribution — against circuits with
   exactly known complex poles and zeros. *)

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

(* ---------- probing ---------- *)

let test_probe_paths_agree () =
  (* Shared-factorisation probing must equal the netlist-level reference
     (attach an Isource, run plain AC) to solver precision. *)
  let circ = Workloads.Filters.parallel_rlc () in
  let sweep = Numerics.Sweep.decade 1e5 1e8 20 in
  let probe = Stability.Probe.prepare circ in
  let fast = Stability.Probe.response probe ~sweep "n" in
  let slow = Stability.Probe.response_via_netlist circ ~sweep "n" in
  Array.iteri
    (fun k hf ->
      Alcotest.(check bool)
        (Printf.sprintf "agree at point %d" k)
        true
        (Numerics.Cx.close ~tol:1e-9 hf
           slow.Numerics.Waveform.Freq.h.(k)))
    fast.Numerics.Waveform.Freq.h

let test_probe_many_matches_single () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e5 1e8 5 in
  let probe = Stability.Probe.prepare circ in
  let many = Stability.Probe.response_many probe ~sweep [ "out"; "o1" ] in
  let single = Stability.Probe.response probe ~sweep "o1" in
  let from_many = List.assoc "o1" many in
  Array.iteri
    (fun k h ->
      Alcotest.(check bool) "identical" true
        (Numerics.Cx.close ~tol:1e-12 h
           from_many.Numerics.Waveform.Freq.h.(k)))
    single.Numerics.Waveform.Freq.h

let test_probe_rejects_ground () =
  let circ = Workloads.Filters.parallel_rlc () in
  let probe = Stability.Probe.prepare circ in
  Alcotest.(check bool) "ground rejected" true
    (try
       ignore
         (Stability.Probe.response probe
            ~sweep:(Numerics.Sweep.List [| 1e6 |])
            "0");
       false
     with Invalid_argument _ -> true)

let test_probe_backends_agree () =
  (* The dense oracle and the default compiled sparse kernel factor the
     same system and must agree to solver precision on a mid-size
     circuit. *)
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e4 1e8 10 in
  let probe = Stability.Probe.prepare circ in
  let nodes = [ "out"; "o1"; "vcasc" ] in
  let dense = Stability.Probe.response_many ~backend:`Dense probe ~sweep nodes in
  let sparse = Stability.Probe.response_many probe ~sweep nodes in
  List.iter2
    (fun (n1, w1) (n2, w2) ->
      Alcotest.(check string) "node order" n1 n2;
      Array.iteri
        (fun k h ->
          Alcotest.(check bool)
            (Printf.sprintf "%s agrees at point %d" n1 k)
            true
            (Numerics.Cx.close ~tol:1e-9 h
               w2.Numerics.Waveform.Freq.h.(k)))
        w1.Numerics.Waveform.Freq.h)
    dense sparse

let test_probe_parallel_agrees () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e4 1e8 15 in
  let probe = Stability.Probe.prepare circ in
  let nodes = [ "out"; "o1" ] in
  let seq = Stability.Probe.response_many probe ~sweep nodes in
  let par = Stability.Probe.response_many ~parallel:`Par probe ~sweep nodes in
  List.iter2
    (fun (_, w1) (_, w2) ->
      Array.iteri
        (fun k h ->
          Alcotest.(check bool) "parallel equals sequential" true
            (Numerics.Cx.close ~tol:1e-14 h
               w2.Numerics.Waveform.Freq.h.(k)))
        w1.Numerics.Waveform.Freq.h)
    seq par

(* ---------- single-node on known circuits ---------- *)

let test_rlc_tank_estimates () =
  let r = 100. and l = 1e-6 and c = 1e-9 in
  let fn, zeta = Workloads.Filters.parallel_rlc_theory ~r ~l ~c () in
  let circ = Workloads.Filters.parallel_rlc ~r ~l ~c () in
  let res = Stability.Analysis.single_node circ "n" in
  match res.Stability.Analysis.dominant with
  | Some d ->
    check_close ~tol:1e-3 "natural frequency" fn d.Stability.Peaks.freq;
    check_close ~tol:1e-2 "performance index"
      (Control.Second_order.performance_index zeta)
      d.Stability.Peaks.value;
    (match d.Stability.Peaks.zeta with
     | Some z -> check_close ~tol:1e-2 "zeta" zeta z
     | None -> Alcotest.fail "no zeta estimate")
  | None -> Alcotest.fail "tank pole not found"

let prop_rlc_random =
  QCheck.Test.make ~name:"random RLC tanks measure their analytic zeta"
    ~count:40
    QCheck.(pair (float_range 30. 3000.) (float_range 0.2 5.))
    (fun (r, l_scale) ->
      let l = l_scale *. 1e-6 and c = 1e-9 in
      let fn, zeta = Workloads.Filters.parallel_rlc_theory ~r ~l ~c () in
      QCheck.assume (zeta > 0.03 && zeta < 0.95);
      QCheck.assume (fn > 5e3 && fn < 5e8);
      let circ = Workloads.Filters.parallel_rlc ~r ~l ~c () in
      let res = Stability.Analysis.single_node circ "n" in
      match res.Stability.Analysis.dominant with
      | Some d ->
        let ok_freq = Float.abs (d.Stability.Peaks.freq /. fn -. 1.) < 0.02 in
        let ok_peak =
          Float.abs
            (d.Stability.Peaks.value
             -. Control.Second_order.performance_index zeta)
          < 0.05 *. Float.abs (Control.Second_order.performance_index zeta)
          +. 0.1
        in
        ok_freq && ok_peak
      | None -> false)

let test_complex_zero_positive_peak () =
  let rser = 20. and l = 100e-6 and c = 1e-9 in
  let fz, zeta_z = Workloads.Filters.notch_zero_theory ~rser ~l ~c () in
  let circ = Workloads.Filters.notch_with_zero ~rser ~l ~c () in
  (* Probe the node where the notch appears. *)
  let res = Stability.Analysis.single_node circ "out" in
  let zeros =
    List.filter
      (fun (p : Stability.Peaks.peak) -> p.kind = Stability.Peaks.Complex_zero)
      res.Stability.Analysis.peaks
  in
  match zeros with
  | z :: _ ->
    check_close ~tol:2e-2 "zero frequency" fz z.Stability.Peaks.freq;
    (* A complex-zero pair mirrors eq 1.4: peak ~ +1/zeta_z^2. *)
    check_close ~tol:0.15 "zero peak ~ +1/zeta^2"
      (1. /. (zeta_z *. zeta_z))
      z.Stability.Peaks.value
  | [] -> Alcotest.fail "complex zero not reported"

let test_sallen_key_q () =
  let q = 2.5 in
  let fn, zeta = Workloads.Filters.sallen_key_theory ~q () in
  let circ = Workloads.Filters.sallen_key_lowpass ~q () in
  (* The amplifier output is pinned by the ideal VCVS, so it cannot be
     current-probed; the tool must say so clearly... *)
  Alcotest.(check bool) "pinned net rejected with a clear error" true
    (try ignore (Stability.Analysis.single_node circ "out"); false
     with Failure m ->
       let contains s sub =
         let n = String.length s and k = String.length sub in
         let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
         go 0
       in
       contains m "no finite AC response");
  (* ...and the filter's state node carries the complex pair. *)
  let res = Stability.Analysis.single_node circ "x2" in
  match res.Stability.Analysis.dominant with
  | Some d ->
    check_close ~tol:2e-2 "fn" fn d.Stability.Peaks.freq;
    (match d.Stability.Peaks.zeta with
     | Some z -> check_close ~tol:3e-2 "zeta = 1/(2q)" zeta z
     | None -> Alcotest.fail "no zeta")
  | None -> Alcotest.fail "sallen-key pole not found"

let test_shoulders_suppressed () =
  (* A single sharp pole pair must report exactly one significant peak:
     the side-lobes of the dip are not complex zeros. *)
  let circ = Workloads.Filters.parallel_rlc ~r:300. () in
  let res = Stability.Analysis.single_node circ "n" in
  let significant =
    List.filter
      (fun (p : Stability.Peaks.peak) -> Float.abs p.Stability.Peaks.value > 1.)
      res.Stability.Analysis.peaks
  in
  Alcotest.(check int) "one significant peak" 1 (List.length significant)

let test_end_of_range_notice () =
  (* Sweep that stops below the tank resonance: the stability function is
     still descending at the edge -> end-of-range notice. *)
  let circ = Workloads.Filters.parallel_rlc () in
  (* fn ~ 5 MHz; sweep to 4.8 MHz. *)
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e4 4.8e6 60;
      refine = false }
  in
  let res = Stability.Analysis.single_node ~options circ "n" in
  Alcotest.(check bool) "end-of-range flagged" true
    (List.exists
       (fun (p : Stability.Peaks.peak) ->
         List.mem Stability.Peaks.End_of_range p.Stability.Peaks.notices)
       res.Stability.Analysis.peaks)

let test_refinement_improves_peak () =
  (* On a very sharp peak a coarse grid underestimates the depth; the zoom
     refinement must recover it. *)
  let r = 1000. in
  let _, zeta = Workloads.Filters.parallel_rlc_theory ~r () in
  let circ = Workloads.Filters.parallel_rlc ~r () in
  let coarse_opts =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e9 10;
      refine = false }
  in
  let refined_opts = { coarse_opts with refine = true } in
  let expected = Control.Second_order.performance_index zeta in
  let peak_of opts =
    match
      (Stability.Analysis.single_node ~options:opts circ "n")
        .Stability.Analysis.dominant
    with
    | Some d -> d.Stability.Peaks.value
    | None -> Alcotest.fail "no peak"
  in
  let coarse = peak_of coarse_opts in
  let refined = peak_of refined_opts in
  Alcotest.(check bool)
    (Printf.sprintf "coarse %.0f misses the true %.0f" coarse expected)
    true
    (Float.abs (coarse -. expected) > 0.2 *. Float.abs expected);
  check_close ~tol:5e-2 "refined depth" expected refined

(* ---------- all-nodes, loops, reports ---------- *)

let test_all_nodes_rlc_cluster () =
  (* Two independent tanks -> two loops at their natural frequencies. *)
  let open Circuit.Netlist in
  let c = empty ~title:"two tanks" () in
  let c = resistor c "R1" "a" "0" 100. in
  let c = inductor c "L1" "a" "0" 1e-6 in
  let c = capacitor c "C1" "a" "0" 1e-9 in
  let c = resistor c "R2" "b" "0" 100. in
  let c = inductor c "L2" "b" "0" 10e-6 in
  let c = capacitor c "C2" "b" "0" 10e-9 in
  (* Weak coupling so both nets exist in one connected circuit. *)
  let c = resistor c "RC" "a" "b" 1e9 in
  let results = Stability.Analysis.all_nodes c in
  let loops = Stability.Loops.cluster results in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let fn1, _ = Workloads.Filters.parallel_rlc_theory () in
  let fn2, _ =
    Workloads.Filters.parallel_rlc_theory ~l:10e-6 ~c:10e-9 ()
  in
  (match loops with
   | [ l1; l2 ] ->
     check_close ~tol:2e-2 "slow tank" (Float.min fn1 fn2)
       l1.Stability.Loops.natural_freq;
     check_close ~tol:2e-2 "fast tank" (Float.max fn1 fn2)
       l2.Stability.Loops.natural_freq
   | _ -> Alcotest.fail "unexpected loop structure")

let test_report_format () =
  let circ = Workloads.Filters.parallel_rlc () in
  let results = Stability.Analysis.all_nodes circ in
  let report = Stability.Report.all_nodes_string results in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has header" true (contains report "Stability Peak");
  Alcotest.(check bool) "mentions the loop" true (contains report "Loop at");
  Alcotest.(check bool) "mentions the node" true (contains report "n");
  let single =
    Stability.Report.single_node_string (List.hd results)
  in
  Alcotest.(check bool) "single-node mentions dominant" true
    (contains single "dominant")

(* ---------- degraded nodes (clamped response samples) ---------- *)

let second_order_response ~zeta ~fn freqs =
  Array.map
    (fun f ->
      let x = f /. fn in
      let re = 1. -. (x *. x) and im = 2. *. zeta *. x in
      Complex.div Complex.one { Complex.re; im })
    freqs

let test_plot_degraded_completes () =
  (* Regression: a response with an underflowed-to-zero sample (deep notch)
     or a non-finite solve used to raise Invalid_argument out of
     Stability_plot and kill the whole run. It must now complete, flagged. *)
  let freqs = Numerics.Sweep.points (Numerics.Sweep.decade 1e4 1e8 60) in
  let h = second_order_response ~zeta:0.2 ~fn:1e6 freqs in
  h.(100) <- Complex.zero;
  h.(200) <- { Complex.re = Float.nan; im = 0. };
  let w = Numerics.Waveform.Freq.make freqs h in
  let plot = Stability.Stability_plot.of_response w in
  Alcotest.(check int) "two samples clamped" 2
    plot.Stability.Stability_plot.clamped;
  Alcotest.(check bool) "flagged degraded" true
    (Stability.Stability_plot.degraded plot);
  Alcotest.(check bool) "P finite everywhere" true
    (Array.for_all Float.is_finite plot.Stability.Stability_plot.p);
  (* The floor is 14 decades down, so the clamped notch dominates the
     plot: the global minimum is the floor artefact at the clamped sample,
     not the physical resonance — exactly why reports must flag these
     nodes instead of trusting their peaks. *)
  let fpk, vpk = Stability.Stability_plot.global_minimum plot in
  check_close ~tol:0.2 "global minimum sits at the clamp artefact"
    freqs.(100) fpk;
  Alcotest.(check bool) "artefact dwarfs any physical peak" true
    (vpk < -1000.);
  (* A clean response is not flagged. *)
  let clean =
    Stability.Stability_plot.of_response
      (Numerics.Waveform.Freq.make freqs
         (second_order_response ~zeta:0.2 ~fn:1e6 freqs))
  in
  Alcotest.(check bool) "clean plot not degraded" false
    (Stability.Stability_plot.degraded clean)

let test_plot_value_at_range () =
  let freqs = Numerics.Sweep.points (Numerics.Sweep.decade 1e4 1e8 30) in
  let w =
    Numerics.Waveform.Freq.make freqs
      (second_order_response ~zeta:0.3 ~fn:1e6 freqs)
  in
  let plot = Stability.Stability_plot.of_response w in
  (match Stability.Stability_plot.value_at_opt plot 1e6 with
   | Some v ->
     check_close "opt agrees with raising form"
       (Stability.Stability_plot.value_at plot 1e6) v
   | None -> Alcotest.fail "in-range query answered None");
  Alcotest.(check bool) "below sweep is None" true
    (Stability.Stability_plot.value_at_opt plot 1e3 = None);
  Alcotest.(check bool) "above sweep is None" true
    (Stability.Stability_plot.value_at_opt plot 1e9 = None);
  Alcotest.(check bool) "raising form raises out of range" true
    (try
       ignore (Stability.Stability_plot.value_at plot 1e3);
       false
     with Invalid_argument _ -> true)

let test_report_flags_degraded () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let circ = Workloads.Filters.parallel_rlc () in
  let results = Stability.Analysis.all_nodes circ in
  let clean_report = Stability.Report.all_nodes_string results in
  Alcotest.(check bool) "clean run has no degraded section" false
    (contains clean_report "Degraded");
  (* Force one node's result into the degraded state and check both report
     flavours surface it. *)
  let degraded_results =
    List.map
      (fun r -> { r with Stability.Analysis.degraded = 3 })
      results
  in
  let report = Stability.Report.all_nodes_string degraded_results in
  Alcotest.(check bool) "all-nodes report flags degraded nodes" true
    (contains report "Degraded");
  Alcotest.(check bool) "clamp count shown" true
    (contains report "3 sample(s) clamped");
  let single =
    Stability.Report.single_node_string (List.hd degraded_results)
  in
  Alcotest.(check bool) "single-node report flags degradation" true
    (contains single "DEGRADED")

let test_annotation () =
  let circ = Workloads.Filters.parallel_rlc () in
  let results = Stability.Analysis.all_nodes circ in
  let text = Stability.Annotate.netlist_string circ results in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "net annotated" true (contains text "n: peak");
  Alcotest.(check bool) "devices listed" true (contains text "R1");
  Alcotest.(check bool) "summary block" true (contains text "per-net summary")

(* ---------- limitations (documented) ---------- *)

let test_rhp_poles_look_stable_in_the_plot () =
  (* A known limitation of the method: the stability plot reads the peak
     magnitude, which depends on |Re(s)| but not its sign — a loop with
     right-half-plane poles produces the same deep peak as a stable loop
     with mirrored poles. The exact pole analysis disambiguates. *)
  let open Circuit.Netlist in
  let c = empty ~title:"negative-resistance tank" () in
  let c = inductor c "L1" "n" "0" 1e-6 in
  let c = capacitor c "C1" "n" "0" 1e-9 in
  let c = resistor c "R1" "n" "0" 100. in       (* zeta_R = +0.158 *)
  let c = vccs c "GNEG" "n" "0" "n" "0" (-15e-3) in (* tips net damping < 0 *)
  let poles = Engine.Poles.of_circuit c in
  Alcotest.(check bool) "eigenvalues see the instability" false
    (Engine.Poles.is_stable poles);
  let res = Stability.Analysis.single_node c "n" in
  match res.Stability.Analysis.dominant with
  | Some d ->
    (* The plot still reports a deep negative peak with a positive zeta
       estimate — it flags the loop as critical but cannot give the sign. *)
    Alcotest.(check bool) "plot flags the loop" true
      (d.Stability.Peaks.value < -5.);
    Alcotest.(check bool) "zeta estimate is unsigned" true
      (match d.Stability.Peaks.zeta with Some z -> z > 0. | None -> false)
  | None -> Alcotest.fail "plot missed the resonance entirely"

(* ---------- physical invariants ---------- *)

let test_reciprocity () =
  (* RLC networks are reciprocal: Z(k <- j) = Z(j <- k). Measured through
     the same factorisation path the probing uses. *)
  let open Circuit.Netlist in
  let c = empty ~title:"ladder" () in
  let c = resistor c "R1" "a" "b" 1e3 in
  let c = capacitor c "C1" "b" "0" 1e-9 in
  let c = inductor c "L1" "b" "c" 10e-6 in
  let c = resistor c "R2" "c" "0" 2e3 in
  let c = capacitor c "C2" "a" "0" 0.5e-9 in
  let c = resistor c "R3" "a" "0" 10e3 in
  let mna = Engine.Mna.compile c in
  let op = Engine.Dcop.solve mna in
  let ia = Engine.Mna.node_index mna "a" in
  let ic = Engine.Mna.node_index mna "c" in
  List.iter
    (fun f ->
      let lu =
        Engine.Ac.factor_at ~op ~omega:(2. *. Float.pi *. f) mna
      in
      let solve k =
        let b = Array.make mna.Engine.Mna.size Numerics.Cx.zero in
        b.(k) <- Numerics.Cx.one;
        Numerics.Cmat.lu_solve lu b
      in
      let z_ca = (solve ia).(ic) in
      let z_ac = (solve ic).(ia) in
      Alcotest.(check bool)
        (Printf.sprintf "Z(c<-a) = Z(a<-c) at %g Hz" f)
        true
        (Numerics.Cx.close ~tol:1e-12 z_ca z_ac))
    [ 1e3; 1e5; 1e7 ]

let test_transient_ring_frequency_matches_plot () =
  (* The buffer's transient ring period must match the natural frequency
     the AC-domain stability plot reports (time/frequency consistency). *)
  let circ = Workloads.Opamp_2mhz.buffer () in
  let d =
    (Stability.Analysis.single_node circ "out").Stability.Analysis.dominant
    |> Option.get
  in
  let fn = d.Stability.Peaks.freq in
  let zeta = Option.get d.Stability.Peaks.zeta in
  let fd = fn *. sqrt (1. -. (zeta *. zeta)) in
  let tr = Engine.Transient.run ~tstop:6e-6 ~tstep:2e-9 circ in
  let w = Engine.Transient.v tr "out" in
  (* Ring frequency from the crossings of the settled value after the
     step fires at 1 us. *)
  let crossings =
    Numerics.Interp.crossings ~x:w.Numerics.Waveform.Real.x
      ~y:w.Numerics.Waveform.Real.y 2.55
    |> List.filter (fun t -> t > 1.2e-6 && t < 4e-6)
  in
  Alcotest.(check bool) "enough ring cycles" true
    (List.length crossings >= 6);
  let rec spans = function
    | a :: (b :: _ as rest) -> (b -. a) :: spans rest
    | _ -> []
  in
  let half_periods = spans crossings in
  let mean =
    List.fold_left ( +. ) 0. half_periods
    /. float_of_int (List.length half_periods)
  in
  let f_ring = 1. /. (2. *. mean) in
  check_close ~tol:0.08 "ring frequency = damped natural frequency" fd
    f_ring

(* ---------- cross-validation against exact TF mathematics ---------- *)

let test_cross_validation_with_tf () =
  (* Closed-loop TF of a two-pole unity-feedback loop; the circuit-level
     stability plot at the loop output must find the TF's dominant pole. *)
  let gain_a = 300. and p1 = 1e4 and p2 = 3e6 in
  let l =
    Control.Tf.of_real_coeffs ~num:[| gain_a |]
      ~den:
        [| 1.;
           (1. /. (2. *. Float.pi *. p1)) +. (1. /. (2. *. Float.pi *. p2));
           1. /. (4. *. Float.pi *. Float.pi *. p1 *. p2) |]
  in
  let cl = Control.Tf.feedback l in
  let wn_tf, zeta_tf =
    match Control.Tf.dominant_complex_pole cl with
    | Some x -> x
    | None -> Alcotest.fail "TF has no complex pole"
  in
  (* Same loop as a circuit. *)
  let open Circuit.Netlist in
  let c = empty ~title:"tf cross-check" () in
  let c = vsource c "VIN" "in" "0" (ac_source 0.) in
  let c = vcvs c "EAMP" "x1" "0" "in" "fb" gain_a in
  let c = resistor c "R1" "x1" "x2" 1e3 in
  let c = capacitor c "C1" "x2" "0" (1. /. (2. *. Float.pi *. p1 *. 1e3)) in
  let c = vcvs c "EBUF" "x2b" "0" "x2" "0" 1. in
  let c = resistor c "R2" "x2b" "fb" 1e3 in
  let c = capacitor c "C2" "fb" "0" (1. /. (2. *. Float.pi *. p2 *. 1e3)) in
  let res = Stability.Analysis.single_node c "fb" in
  match res.Stability.Analysis.dominant with
  | Some d ->
    check_close ~tol:1e-2 "fn matches TF pole"
      (wn_tf /. (2. *. Float.pi))
      d.Stability.Peaks.freq;
    (match d.Stability.Peaks.zeta with
     | Some z -> check_close ~tol:2e-2 "zeta matches TF pole" zeta_tf z
     | None -> Alcotest.fail "no zeta estimate")
  | None -> Alcotest.fail "dominant pole not found"

(* ---------- AC-plan backends ---------- *)

(* The compiled solve path is a pure performance refactor of the dense
   oracle: both backends over the same shipped deck must produce the
   same node set, the same peak structure, and numerically equivalent
   estimates. *)
let test_all_nodes_backends_agree () =
  let circ = Circuit.Parser.parse_file "../circuits/two_pole_loop.sp" in
  let run backend =
    let options =
      { Stability.Analysis.default_options with
        sweep = Numerics.Sweep.decade 1e2 1e8 20;
        backend }
    in
    Stability.Analysis.all_nodes ~options circ
  in
  let dense = run `Dense in
  let compiled = run `Auto in
  Alcotest.(check bool) "some nets analysed" true (List.length dense > 0);
  Alcotest.(check (list string)) "same nets"
    (List.map (fun r -> r.Stability.Analysis.node) dense)
    (List.map (fun r -> r.Stability.Analysis.node) compiled);
  List.iter2
    (fun ra rb ->
      let node = ra.Stability.Analysis.node in
      let pa = ra.Stability.Analysis.peaks
      and pb = rb.Stability.Analysis.peaks in
      Alcotest.(check int) (node ^ " peak count") (List.length pa)
        (List.length pb);
      List.iter2
        (fun (p : Stability.Peaks.peak) (q : Stability.Peaks.peak) ->
          Alcotest.(check bool) (node ^ " same peak kind") true
            (p.kind = q.kind);
          check_close ~tol:1e-6 (node ^ " natural frequency") p.freq q.freq;
          check_close ~tol:1e-6 (node ^ " performance index") p.value
            q.value)
        pa pb)
    dense compiled

(* Every shipped deck — the six under circuits/ and the four
   export-builtin designs — through the cached pipeline twice, default
   and dense oracle: the manifests must agree within `acstab diff`
   tolerance (no peak, net or loop change, no grade downgrade). *)
let test_default_matches_dense_shipped () =
  let decks =
    List.map
      (fun f -> Tool.Pipeline.Deck_file ("../circuits/" ^ f))
      [ "double_tuned.sp"; "emitter_follower.sp"; "rlc_tank.sp";
        "sallen_key.sp"; "two_pole_loop.sp"; "wilson_mirror.sp" ]
    @ List.map
        (fun (name, circ) -> Tool.Pipeline.Deck_circuit { name; circ })
        [ ("opamp_2mhz_buffer", Workloads.Opamp_2mhz.buffer ());
          ("nmc_amp_buffer", Workloads.Nmc_amp.buffer ());
          ("bias_zero_tc", Workloads.Bias_zero_tc.cell ());
          ("rc_ladder_20", Workloads.Ladder.rc ()) ]
  in
  List.iter
    (fun deck ->
      let manifest backend =
        let options = { Stability.Analysis.default_options with backend } in
        match
          Tool.Pipeline.run ~cache:(Tool.Cache.create ())
            (Tool.Pipeline.request ~options deck (Tool.Pipeline.All_nodes None))
        with
        | Ok o -> o.Tool.Pipeline.manifest
        | Error f -> Alcotest.fail (Tool.Pipeline.failure_message f)
      in
      let dense = manifest `Dense and compiled = manifest `Auto in
      let name = dense.Tool.Manifest.deck_file in
      Alcotest.(check (list string)) (name ^ ": acstab diff is clean") []
        (List.map (Format.asprintf "%a" Tool.Manifest.pp_change)
           (Tool.Manifest.diff dense compiled)))
    decks

(* One symbolic analysis per sweep and one kernel point per frequency
   point, however many nets are probed. Asserted through the counters. *)
let test_plan_factorisation_counts () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e4 1e8 10 in
  let points = Array.length (Numerics.Sweep.points sweep) in
  let probe = Stability.Probe.prepare circ in
  let nodes = [ "out"; "o1"; "vcasc" ] in
  let sym = Engine.Ac_plan.analyses () in
  let before = Engine.Kernel.totals () in
  ignore (Stability.Probe.response_many probe ~sweep nodes);
  let after = Engine.Kernel.totals () in
  Alcotest.(check int) "one symbolic analysis per sweep" (sym + 1)
    (Engine.Ac_plan.analyses ());
  Alcotest.(check int) "no pivot-order fallbacks" 0
    (after.Engine.Kernel.fallback - before.Engine.Kernel.fallback);
  Alcotest.(check int) "one refactorisation per point" points
    (after.Engine.Kernel.points - before.Engine.Kernel.points)

(* ---------- compiled kernels ---------- *)

(* The kernel's contract is stronger than numerical agreement: it
   replays the exact float operation sequence of the interpreted Scmat
   path on the plan's symbolic analysis, so every comparison below is
   on the raw IEEE bits, not a tolerance. *)

let complex_bits z =
  (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im)

let check_waves_bit_identical label a b =
  List.iter2
    (fun (n1, w1) (n2, w2) ->
      Alcotest.(check string) (label ^ ": node order") n1 n2;
      Array.iteri
        (fun k h ->
          if complex_bits h
             <> complex_bits w2.Numerics.Waveform.Freq.h.(k)
          then
            Alcotest.failf "%s: net %s differs bit-wise at point %d" label
              n1 k)
        w1.Numerics.Waveform.Freq.h)
    a b

(* What the kernel replays at one frequency: refactor the plan's matrix
   along its frozen symbolic analysis (fresh partial pivoting in the
   frozen column order where the frozen pivots go stale), then one
   batched solve. *)
let scmat_replay plan ~omega bs =
  let a = Engine.Ac_plan.matrix_at plan ~omega in
  let sym = Engine.Ac_plan.symbolic plan in
  let f =
    try Numerics.Scmat.refactor ~pivot_tol:Engine.Ac_plan.pivot_tol sym a
    with Numerics.Sparse.Singular _ -> Numerics.Scmat.repivot sym a
  in
  Numerics.Scmat.lu_solve_many f bs

let unit_rhs size k =
  let b = Array.make size Numerics.Cx.zero in
  b.(k) <- Numerics.Cx.one;
  b

(* The Scmat replay of a whole probe sweep, on the plan the probe layer
   compiles for it (or on [plan]): full solves, one component read. *)
let replay_sweep ?plan probe ~sweep nodes =
  let plan =
    match plan with
    | Some p -> p
    | None -> Stability.Probe.plan probe ~sweep
  in
  let mna = probe.Stability.Probe.mna in
  let idx = List.map (Engine.Mna.node_index mna) nodes in
  let bs =
    Array.of_list (List.map (unit_rhs mna.Engine.Mna.size) idx)
  in
  let freqs = Numerics.Sweep.points sweep in
  let xs =
    Array.map (fun f -> scmat_replay plan ~omega:(2. *. Float.pi *. f) bs)
      freqs
  in
  List.mapi
    (fun q (n, i) ->
      let h = Array.map (fun x -> x.(q).(i)) xs in
      (n, Numerics.Waveform.Freq.make freqs h))
    (List.combine nodes idx)

(* Every shipped deck, every net, both batch shapes: the multi-RHS
   sweep (m > 1 reciprocal back-substitution) and the single-net sweep
   (m = 1 division form — a genuinely different float sequence the
   kernel must reproduce too). *)
let test_kernel_bits_shipped_decks () =
  List.iter
    (fun file ->
      let circ = Circuit.Parser.parse_file ("../circuits/" ^ file) in
      let probe = Stability.Probe.prepare circ in
      let sweep = Numerics.Sweep.decade 1e2 1e8 8 in
      let nodes = Circuit.Netlist.node_names circ in
      let check label nodes =
        check_waves_bit_identical (file ^ label)
          (replay_sweep probe ~sweep nodes)
          (Stability.Probe.response_many probe ~sweep nodes)
      in
      check " all nets" nodes;
      check " single net" [ List.hd nodes ])
    [ "two_pole_loop.sp"; "sallen_key.sp"; "double_tuned.sp";
      "emitter_follower.sp"; "wilson_mirror.sp" ]

(* Property: over the synthetic generator family (mesh / tree / amp
   array, varying shape), [Kernel.solve_many] is bit-identical to the
   Scmat replay on the same plan, across frequencies and for both batch
   shapes. *)
let prop_kernel_bits_synth =
  QCheck.Test.make ~name:"synth circuits: kernel = plan, replayed by Scmat"
    ~count:9
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let circ =
        match seed mod 3 with
        | 0 ->
          Workloads.Synth.rc_mesh ~rows:(2 + (seed mod 3))
            ~cols:(2 + (seed / 3 mod 3)) ()
        | 1 ->
          Workloads.Synth.rc_tree ~depth:2 ~fanout:(2 + (seed mod 2)) ()
        | _ -> Workloads.Synth.amp_array ~stages:(1 + (seed mod 3)) ()
      in
      let mna = Engine.Mna.compile circ in
      let op = Engine.Dcop.solve mna in
      let plan =
        Engine.Ac_plan.compile ~gmin:1e-12 ~omega_ref:(2e6 *. Float.pi)
          ~op mna
      in
      let kern = Engine.Kernel.compile plan in
      let size = mna.Engine.Mna.size in
      let bs =
        Array.map (unit_rhs size) [| 0; size / 2; size - 1 |]
      in
      List.for_all
        (fun f ->
          let omega = 2. *. Float.pi *. f in
          let same xs ys =
            Array.for_all2
              (fun x y ->
                Array.for_all2
                  (fun a b -> complex_bits a = complex_bits b)
                  x y)
              xs ys
          in
          same (scmat_replay plan ~omega bs)
            (Engine.Kernel.solve_many kern ~omega bs)
          && same
               (scmat_replay plan ~omega [| bs.(0) |])
               (Engine.Kernel.solve_many kern ~omega [| bs.(0) |]))
        [ 1e2; 1e5; 1e9 ])

(* Sampled points price the kernel's own factor: the rcond estimate and
   scaled residual it records are exactly those of the Scmat factor it
   replays, so node grades do not depend on how the factor was run. *)
let test_kernel_health_matches_scmat () =
  Engine.Health.set_sample_every 1;
  Fun.protect
    ~finally:(fun () ->
      Engine.Health.set_sample_every Engine.Health.default_sample_every)
    (fun () ->
      List.iter
        (fun (name, circ) ->
          let probe = Stability.Probe.prepare circ in
          let plan =
            Stability.Probe.plan probe ~sweep:(Numerics.Sweep.decade 1e3 1e9 5)
          in
          let kern = Engine.Kernel.compile plan in
          let bs = [| unit_rhs (Engine.Ac_plan.size plan) 0 |] in
          List.iter
            (fun f ->
              let omega = 2. *. Float.pi *. f in
              let m = Engine.Health.meter () in
              let x = (Engine.Kernel.solve_many ~health:m kern ~omega bs).(0) in
              let a = Engine.Ac_plan.matrix_at plan ~omega in
              let fac =
                Numerics.Scmat.refactor ~pivot_tol:Engine.Ac_plan.pivot_tol
                  (Engine.Ac_plan.symbolic plan) a
              in
              let mag_inf v =
                Array.fold_left (fun acc z -> Float.max acc (Numerics.Cx.mag z))
                  0. v
              in
              let label what = Printf.sprintf "%s %s at %g Hz" name what f in
              Alcotest.(check (float 0.)) (label "rcond")
                (Numerics.Cond.rcond (Numerics.Cond.sparse a fac))
                (Engine.Health.worst_rcond m);
              Alcotest.(check (float 0.)) (label "residual")
                (Engine.Health.relative_residual
                   ~norm1:(Numerics.Scmat.norm1 a)
                   ~residual_inf:(Numerics.Scmat.residual_inf a x bs.(0))
                   ~x_inf:(mag_inf x) ~b_inf:(mag_inf bs.(0)))
                (Engine.Health.worst_residual m))
            [ 1e3; 1e6; 1e9 ])
        [ ("opamp", Workloads.Opamp_2mhz.buffer ());
          ("nmc", Workloads.Nmc_amp.buffer ());
          ("mesh", Workloads.Synth.rc_mesh ~rows:3 ~cols:4 ()) ])

(* Where the frozen pivots go stale the kernel re-pivots along the
   frozen column order, and that path too is bit for bit the Scmat
   replay. Net x pivots on its 1 F capacitor at the 1 MHz analysis
   point; the resistor triangle keeps y's degree above x's, so column x
   is eliminated while row y is still free, and at 1e-3 rad/s the
   capacitor's 1e-3 sits against the 1e4 gm entry of row y, far under
   the relative pivot floor. *)
let stale_pivot_deck () =
  Circuit.Parser.parse_string
    "* stale frozen pivot\n\
     V1 in 0 AC 1\n\
     R1 in x 1k\n\
     C1 x 0 1\n\
     G1 y 0 x 0 1e4\n\
     R2 y z 1k\n\
     R3 z w 1k\n\
     R4 w y 1k\n\
     C2 z 0 1n\n\
     C3 w 0 1n\n"

let test_kernel_bits_stale_pivot () =
  let probe = Stability.Probe.prepare (stale_pivot_deck ()) in
  let plan =
    Stability.Probe.plan probe ~sweep:(Numerics.Sweep.decade 1e3 1e9 5)
  in
  let kern = Engine.Kernel.compile plan in
  let size = Engine.Ac_plan.size plan in
  let bs = Array.init size (unit_rhs size) in
  List.iter
    (fun omega ->
      let before = (Engine.Kernel.totals ()).Engine.Kernel.fallback in
      let xs = Engine.Kernel.solve_many kern ~omega bs in
      let x1 = Engine.Kernel.solve_many kern ~omega [| bs.(0) |] in
      Alcotest.(check int)
        (Printf.sprintf "re-pivots at omega %g" omega)
        2
        ((Engine.Kernel.totals ()).Engine.Kernel.fallback - before);
      let same xs ys =
        Array.for_all2
          (Array.for_all2 (fun a b -> complex_bits a = complex_bits b))
          xs ys
      in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical to the Scmat replay at omega %g" omega)
        true
        (same (scmat_replay plan ~omega bs) xs
         && same (scmat_replay plan ~omega [| bs.(0) |]) x1))
    [ 1e-3; 1e-4 ]

(* The stale-pivot fallback under a selection: a probe sweep through
   the two stale frequencies re-pivots there (one fallback per point)
   and still reads each net's component of the full Scmat solve, for
   one net and for every net. *)
let test_selected_solve_stale_pivot () =
  let circ = stale_pivot_deck () in
  let probe = Stability.Probe.prepare circ in
  let plan =
    Stability.Probe.plan probe ~sweep:(Numerics.Sweep.decade 1e3 1e9 5)
  in
  let kernel = Engine.Kernel.compile plan in
  let hz omega = omega /. (2. *. Float.pi) in
  let sweep = Numerics.Sweep.List [| hz 1e-4; hz 1e-3; 1e3; 1e6 |] in
  List.iter
    (fun (label, nodes) ->
      let before = (Engine.Kernel.totals ()).Engine.Kernel.fallback in
      let got = Stability.Probe.response_many ~kernel probe ~sweep nodes in
      Alcotest.(check int) (label ^ ": re-pivots at the two stale points") 2
        ((Engine.Kernel.totals ()).Engine.Kernel.fallback - before);
      check_waves_bit_identical label
        (replay_sweep ~plan probe ~sweep nodes)
        got)
    [ ("one net", [ "x" ]); ("all nets", Circuit.Netlist.node_names circ) ]

let waves_bit_identical a b =
  List.for_all2
    (fun (n1, (w1 : Numerics.Waveform.Freq.t))
         (n2, (w2 : Numerics.Waveform.Freq.t)) ->
      n1 = n2
      && Array.for_all2
           (fun x y -> complex_bits x = complex_bits y)
           w1.Numerics.Waveform.Freq.h w2.Numerics.Waveform.Freq.h)
    a b

(* Property: over the synthetic generator family, for random subsets
   of the nets (a single net, the m = 1 division branch, about half the
   time), each probed net's response from the selected substitutions is
   bit for bit its component of the full Scmat replay. *)
let prop_selected_solve_synth =
  QCheck.Test.make ~name:"synth circuits: selected solve = Scmat replay"
    ~count:12
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick n = Random.State.int rng n in
      let circ =
        match seed mod 3 with
        | 0 ->
          Workloads.Synth.rc_mesh ~rows:(2 + pick 4) ~cols:(2 + pick 4) ()
        | 1 ->
          Workloads.Synth.rc_tree ~depth:(2 + pick 2) ~fanout:(2 + pick 2) ()
        | _ -> Workloads.Synth.amp_array ~stages:(1 + pick 4) ()
      in
      let nets = Array.of_list (Circuit.Netlist.node_names circ) in
      let len = Array.length nets in
      for i = len - 1 downto 1 do
        let j = pick (i + 1) in
        let t = nets.(i) in
        nets.(i) <- nets.(j);
        nets.(j) <- t
      done;
      let m = if Random.State.bool rng then 1 else 1 + pick len in
      let nodes = Array.to_list (Array.sub nets 0 m) in
      let probe = Stability.Probe.prepare circ in
      let sweep = Numerics.Sweep.decade 1e2 1e8 3 in
      waves_bit_identical
        (replay_sweep probe ~sweep nodes)
        (Stability.Probe.response_many probe ~sweep nodes))

(* Chunked pooled execution writes disjoint cells and never enters the
   arithmetic, so parallel kernel sweeps are bit-identical to
   sequential — on real worker domains, not an inlined pool. *)
let test_kernel_seq_par_identical () =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_oversubscribe true;
  Parallel.Pool.set_jobs 3;
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.set_jobs saved;
      Parallel.Pool.set_oversubscribe false;
      Parallel.Pool.shutdown ())
    (fun () ->
      let circ = Workloads.Opamp_2mhz.buffer () in
      let probe = Stability.Probe.prepare circ in
      let sweep = Numerics.Sweep.decade 1e3 1e9 40 in
      let nodes = [ "out"; "o1"; "vcasc" ] in
      let seq =
        Stability.Probe.response_many ~parallel:`Seq probe ~sweep nodes
      in
      let par =
        Stability.Probe.response_many ~parallel:`Par probe ~sweep nodes
      in
      check_waves_bit_identical "kernel seq vs par" seq par)

(* Health sampling follows each point's index within its sweep, so a
   sweep records the same histograms and meter values whatever ran
   before it (here an unrelated 7-point sweep) and however the pool
   dealt its chunks (three oversubscribed workers). *)
let test_health_sampling_deterministic () =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_oversubscribe true;
  Parallel.Pool.set_jobs 3;
  Fun.protect
    ~finally:(fun () ->
      Parallel.Pool.set_jobs saved;
      Parallel.Pool.set_oversubscribe false;
      Parallel.Pool.shutdown ();
      Obs.Histogram.reset ())
    (fun () ->
      let probe = Stability.Probe.prepare (Workloads.Opamp_2mhz.buffer ()) in
      let sweep = Numerics.Sweep.decade 1e3 1e9 40 in
      let nodes = [ "out"; "o1"; "vcasc" ] in
      let run parallel =
        Obs.Histogram.reset ();
        let m = Engine.Health.meter () in
        ignore
          (Stability.Probe.response_many ~parallel ~health:m probe ~sweep
             nodes);
        let hists =
          List.filter
            (fun (name, _) ->
              List.mem name
                [ "health.rcond"; "health.pivot_growth"; "health.residual" ])
            (Obs.Histogram.snapshot ())
        in
        ( hists,
          Engine.Health.worst_rcond m,
          Engine.Health.worst_residual m,
          Engine.Health.samples m )
      in
      let seq = run `Seq in
      ignore
        (Stability.Probe.response_many ~parallel:`Seq probe
           ~sweep:(Numerics.Sweep.decade 1e4 1e5 6) [ "out" ]);
      let again = run `Seq in
      let par = run `Par in
      let _, _, _, samples = seq in
      Alcotest.(check int) "every 16th of 241 points sampled" 16 samples;
      Alcotest.(check bool) "same after an unrelated sweep" true (seq = again);
      Alcotest.(check bool) "sequential = pooled" true (seq = par))

(* The compile/point budget: one kernel compilation per sweep, every
   point advanced through the kernel, zero stale-pivot fallbacks on a
   healthy deck — and a shared pre-compiled kernel recompiles nothing. *)
let test_kernel_counter_budget () =
  let circ = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e4 1e8 10 in
  let points = Array.length (Numerics.Sweep.points sweep) in
  let probe = Stability.Probe.prepare circ in
  let nodes = [ "out"; "o1" ] in
  let before = Engine.Kernel.totals () in
  ignore (Stability.Probe.response_many probe ~sweep nodes);
  let after = Engine.Kernel.totals () in
  Alcotest.(check int) "one kernel compile per sweep" 1
    (after.Engine.Kernel.compiles - before.Engine.Kernel.compiles);
  Alcotest.(check int) "every point through the kernel" points
    (after.Engine.Kernel.points - before.Engine.Kernel.points);
  Alcotest.(check int) "no stale-pivot fallbacks" 0
    (after.Engine.Kernel.fallback - before.Engine.Kernel.fallback);
  Alcotest.(check bool) "batch high-water bounded by chunk" true
    (after.Engine.Kernel.batch_max <= Engine.Kernel.chunk
     && after.Engine.Kernel.batch_max > 0);
  (* Warm path: a caller holding a compiled kernel pays zero compiles,
     and the answers are the ones the cold path produced. *)
  let plan = Stability.Probe.plan probe ~sweep in
  let kern = Engine.Kernel.compile plan in
  let base = (Engine.Kernel.totals ()).Engine.Kernel.compiles in
  let shared =
    Stability.Probe.response_many ~kernel:kern probe ~sweep nodes
  in
  Alcotest.(check int) "shared kernel compiles nothing" base
    (Engine.Kernel.totals ()).Engine.Kernel.compiles;
  check_waves_bit_identical "shared kernel answers"
    (Stability.Probe.response_many probe ~sweep nodes)
    shared

(* ---------- numerical-health grading ---------- *)

(* A healthy deck must come back [Good]: the shipped RC ladder is as
   well-conditioned as AC analysis gets. *)
let test_quality_good_on_healthy_deck () =
  let circ = Workloads.Ladder.rc ~sections:8 () in
  let options =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e6 10 }
  in
  let res = Stability.Analysis.single_node ~options circ "n8" in
  Alcotest.(check string) "healthy deck grades good" "good"
    (Stability.Analysis.quality_string res.Stability.Analysis.quality)

(* A gmin-starved capacitive divider: two femtofarad caps in series,
   no resistive path anywhere. At 1 Hz the cap admittances are ~1e-14
   while the source rows carry unit entries, so every factorisation is
   catastrophically ill-conditioned — the health meter must demote the
   node to [Suspect]. Sampling is forced to every point so the verdict
   rests on every factorisation of the sweep. *)
let test_quality_suspect_on_starved_deck () =
  let circ =
    Circuit.Parser.parse_string
      "* gmin-starved capacitive divider\n\
       V1 n1 0 AC 1\n\
       C1 n1 n2 1e-15\n\
       C2 n2 0 1e-15\n"
  in
  Engine.Health.set_sample_every 1;
  Fun.protect
    ~finally:(fun () ->
      Engine.Health.set_sample_every Engine.Health.default_sample_every)
    (fun () ->
      let options =
        { Stability.Analysis.default_options with
          sweep = Numerics.Sweep.decade 1. 1e3 10;
          refine = false }
      in
      let res = Stability.Analysis.single_node ~options circ "n2" in
      Alcotest.(check string) "starved deck grades suspect" "suspect"
        (Stability.Analysis.quality_string res.Stability.Analysis.quality))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "stability"
    [ ("probe",
       [ Alcotest.test_case "fast path = netlist path" `Quick
           test_probe_paths_agree;
         Alcotest.test_case "many = single" `Quick
           test_probe_many_matches_single;
         Alcotest.test_case "ground rejected" `Quick
           test_probe_rejects_ground;
         Alcotest.test_case "dense = sparse backend" `Quick
           test_probe_backends_agree;
         Alcotest.test_case "parallel = sequential" `Quick
           test_probe_parallel_agrees ]);
      ("single-node",
       [ Alcotest.test_case "rlc tank estimates" `Quick
           test_rlc_tank_estimates;
         Alcotest.test_case "complex zero positive peak" `Quick
           test_complex_zero_positive_peak;
         Alcotest.test_case "sallen-key q" `Quick test_sallen_key_q;
         Alcotest.test_case "shoulder suppression" `Quick
           test_shoulders_suppressed;
         Alcotest.test_case "end-of-range notice" `Quick
           test_end_of_range_notice;
         Alcotest.test_case "zoom refinement" `Quick
           test_refinement_improves_peak ]);
      qsuite "single-node-props" [ prop_rlc_random ];
      ("all-nodes",
       [ Alcotest.test_case "loop clustering" `Quick
           test_all_nodes_rlc_cluster;
         Alcotest.test_case "report format" `Quick test_report_format;
         Alcotest.test_case "annotation" `Quick test_annotation ]);
      ("degraded",
       [ Alcotest.test_case "clamped response completes" `Quick
           test_plot_degraded_completes;
         Alcotest.test_case "value_at range handling" `Quick
           test_plot_value_at_range;
         Alcotest.test_case "reports flag degradation" `Quick
           test_report_flags_degraded ]);
      ("health",
       [ Alcotest.test_case "healthy deck grades good" `Quick
           test_quality_good_on_healthy_deck;
         Alcotest.test_case "gmin-starved deck grades suspect" `Quick
           test_quality_suspect_on_starved_deck ]);
      ("ac-plan",
       [ Alcotest.test_case "backends agree on shipped deck" `Quick
           test_all_nodes_backends_agree;
         Alcotest.test_case "default = dense on every shipped deck" `Quick
           test_default_matches_dense_shipped;
         Alcotest.test_case "factorisation counters" `Quick
           test_plan_factorisation_counts ]);
      ("kernel",
       [ Alcotest.test_case "shipped decks bit-identical to Scmat replay"
           `Quick
           test_kernel_bits_shipped_decks;
         QCheck_alcotest.to_alcotest prop_kernel_bits_synth;
         Alcotest.test_case "stale pivots re-pivot, bit-identical" `Quick
           test_kernel_bits_stale_pivot;
         QCheck_alcotest.to_alcotest prop_selected_solve_synth;
         Alcotest.test_case "selected solve re-pivots, bit-identical" `Quick
           test_selected_solve_stale_pivot;
         Alcotest.test_case "health sampling: seq = par, history-free"
           `Quick test_health_sampling_deterministic;
         Alcotest.test_case "parallel = sequential, bit for bit" `Quick
           test_kernel_seq_par_identical;
         Alcotest.test_case "sampled health = Scmat factor health" `Quick
           test_kernel_health_matches_scmat;
         Alcotest.test_case "compile/point counter budget" `Quick
           test_kernel_counter_budget ]);
      ("cross-validation",
       [ Alcotest.test_case "matches exact TF poles" `Quick
           test_cross_validation_with_tf ]);
      ("limitations",
       [ Alcotest.test_case "RHP poles look stable in the plot" `Quick
           test_rhp_poles_look_stable_in_the_plot ]);
      ("invariants",
       [ Alcotest.test_case "reciprocity" `Quick test_reciprocity;
         Alcotest.test_case "transient ring frequency" `Slow
           test_transient_ring_frequency_matches_plot ]) ]
