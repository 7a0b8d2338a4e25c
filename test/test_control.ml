(* Control-theory library: second-order relations (paper Table 1),
   transfer functions, step responses. *)

open Control

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

(* ---------- second-order relations ---------- *)

(* The paper's Table 1, row by row (zeta, overshoot%, PM deg, Mp, index). *)
let paper_table1 =
  [ (1.0, Some 0., None, None, -1.0);
    (0.9, Some 0., None, None, -1.2);
    (0.8, Some 2., None, None, -1.6);
    (0.7, Some 5., Some 70., Some 1.01, -2.0);
    (0.6, Some 10., Some 60., Some 1.04, -2.8);
    (0.5, Some 16., Some 50., Some 1.15, -4.0);
    (0.4, Some 25., Some 40., Some 1.4, -6.3);
    (0.3, Some 37., Some 30., Some 1.8, -11.);
    (0.2, Some 53., Some 20., Some 2.6, -25.);
    (0.1, Some 73., Some 10., Some 5.0, -100.) ]

let test_table1_against_paper () =
  let rows = Second_order.table1 () in
  List.iter
    (fun (zeta, os, pm, mp, idx) ->
      let row =
        List.find (fun r -> r.Second_order.zeta = zeta) rows
      in
      (match (os, row.overshoot_pct) with
       | Some expect, Some got ->
         (* The paper rounds to integers. *)
         Alcotest.(check bool)
           (Printf.sprintf "overshoot zeta=%g: %g vs %g" zeta expect got)
           true
           (Float.abs (expect -. got) <= 1.)
       | None, None -> ()
       | _ -> Alcotest.failf "overshoot presence mismatch at zeta=%g" zeta);
      (match (pm, row.phase_margin_deg) with
       | Some expect, Some got -> check_close "phase margin" expect got
       | None, None -> ()
       | _ -> Alcotest.failf "PM presence mismatch at zeta=%g" zeta);
      (match (mp, row.max_magnitude) with
       | Some expect, Some got ->
         Alcotest.(check bool)
           (Printf.sprintf "Mp zeta=%g: %g vs %g" zeta expect got)
           true
           (* The paper rounds Mp to two significant digits. *)
           (Float.abs (expect -. got) <= 0.06)
       | None, None -> ()
       | _ -> Alcotest.failf "Mp presence mismatch at zeta=%g" zeta);
      Alcotest.(check bool)
        (Printf.sprintf "index zeta=%g: %g vs %g" zeta idx
           row.Second_order.perf_index)
        true
        (Float.abs (idx -. row.Second_order.perf_index)
         <= 0.05 *. Float.abs idx))
    paper_table1

let test_zeta_roundtrips () =
  List.iter
    (fun zeta ->
      check_close ~tol:1e-6 "overshoot inverse" zeta
        (Second_order.zeta_of_overshoot (Second_order.percent_overshoot zeta));
      check_close ~tol:1e-6 "pm inverse" zeta
        (Second_order.zeta_of_phase_margin
           (Second_order.phase_margin_exact zeta));
      check_close ~tol:1e-9 "index inverse" zeta
        (Second_order.zeta_of_performance_index
           (Second_order.performance_index zeta)))
    [ 0.05; 0.1; 0.2; 0.35; 0.5; 0.7; 0.9 ]

let prop_index_consistency =
  QCheck.Test.make ~name:"performance index vs magnitude response curvature"
    ~count:50
    QCheck.(float_range 0.08 0.9)
    (fun zeta ->
      (* The stability function of the analytic |T| peaks at -1/zeta^2;
         Second_order.mag_response feeds the same Deriv machinery the tool
         uses, closing the control <-> numerics loop. *)
      let freq = Numerics.Vec.logspace 0.01 100. 2501 in
      let mag = Array.map (Second_order.mag_response ~zeta) freq in
      let p = Numerics.Deriv.stability_function ~freq ~mag in
      let i = Numerics.Vec.argmin p in
      let expected = Second_order.performance_index zeta in
      Float.abs (p.(i) -. expected) <= 0.03 *. Float.abs expected)

let test_estimate_chain () =
  (* peak -> (zeta, PM, overshoot), the tool's estimation chain. *)
  match Second_order.estimate_from_peak (-25.) with
  | Some (zeta, pm, os) ->
    check_close ~tol:1e-9 "zeta" 0.2 zeta;
    check_close ~tol:1e-2 "pm" 22.6 pm;
    check_close ~tol:1e-2 "os" 52.66 os
  | None -> Alcotest.fail "no estimate for a valid peak"

let test_estimate_rejects_positive () =
  Alcotest.(check bool) "positive peak rejected" true
    (Second_order.estimate_from_peak 3. = None)

(* ---------- transfer functions ---------- *)

let test_tf_eval_second_order () =
  let tf = Tf.second_order ~zeta:0.5 ~wn:1000. in
  (* |T(j wn)| = 1/(2 zeta). *)
  let h = Tf.eval tf (Numerics.Cx.j_omega 1000.) in
  check_close ~tol:1e-9 "resonant magnitude" 1. (Numerics.Cx.mag h);
  let dc = Tf.dc_gain tf in
  check_close ~tol:1e-12 "dc gain" 1. dc.Complex.re

let test_tf_poles () =
  let tf = Tf.second_order ~zeta:0.3 ~wn:2e6 in
  match Tf.dominant_complex_pole tf with
  | Some (wn, zeta) ->
    check_close ~tol:1e-6 "wn" 2e6 wn;
    check_close ~tol:1e-6 "zeta" 0.3 zeta
  | None -> Alcotest.fail "no complex pole found"

let test_tf_feedback () =
  (* Unity feedback around an integrator A/s gives a one-pole lowpass with
     pole at A. *)
  let g = Tf.mul (Tf.constant 100.) Tf.integrator in
  let cl = Tf.feedback g in
  let h = Tf.response cl (100. /. (2. *. Float.pi)) in
  check_close ~tol:1e-9 "one-pole closed loop at pole" (1. /. sqrt 2.)
    (Numerics.Cx.mag h)

let test_tf_stability_predicate () =
  Alcotest.(check bool) "stable" true
    (Tf.is_stable (Tf.second_order ~zeta:0.2 ~wn:1.));
  let unstable =
    Tf.of_real_coeffs ~num:[| 1. |] ~den:[| 1.; -0.1; 1. |]
  in
  Alcotest.(check bool) "rhp poles detected" false (Tf.is_stable unstable)

let test_tf_step_response () =
  (* Step response of the canonical system matches the closed form. *)
  let zeta = 0.4 and wn = 1e5 in
  let tf = Tf.second_order ~zeta ~wn in
  let w = Tf.step_response_samples tf ~tstop:(20. /. wn) ~n:400 in
  List.iter
    (fun k ->
      let t = float_of_int k /. wn in
      let expected = Second_order.step_response ~zeta (wn *. t) in
      check_close ~tol:1e-4
        (Printf.sprintf "step at wn*t=%d" k)
        expected
        (Numerics.Waveform.Real.value_at w t))
    [ 1; 2; 5; 10; 15 ]

let prop_step_overshoot =
  QCheck.Test.make
    ~name:"step-response overshoot of random second-order TFs" ~count:40
    QCheck.(float_range 0.15 0.85)
    (fun zeta ->
      let wn = 1e4 in
      let tf = Tf.second_order ~zeta ~wn in
      let w = Tf.step_response_samples tf ~tstop:(40. /. wn) ~n:3000 in
      let _, peak = Numerics.Waveform.Real.maximum w in
      let overshoot = 100. *. (peak -. 1.) in
      Float.abs (overshoot -. Second_order.percent_overshoot zeta) < 1.5)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "control"
    [ ("second-order",
       [ Alcotest.test_case "table 1 vs paper" `Quick
           test_table1_against_paper;
         Alcotest.test_case "inverse relations" `Quick test_zeta_roundtrips;
         Alcotest.test_case "estimate chain" `Quick test_estimate_chain;
         Alcotest.test_case "estimate rejects zeros" `Quick
           test_estimate_rejects_positive ]);
      qsuite "second-order-props" [ prop_index_consistency ];
      ("tf",
       [ Alcotest.test_case "second-order eval" `Quick
           test_tf_eval_second_order;
         Alcotest.test_case "pole extraction" `Quick test_tf_poles;
         Alcotest.test_case "feedback composition" `Quick test_tf_feedback;
         Alcotest.test_case "stability predicate" `Quick
           test_tf_stability_predicate;
         Alcotest.test_case "step response closed form" `Quick
           test_tf_step_response ]);
      qsuite "tf-props" [ prop_step_overshoot ] ]
