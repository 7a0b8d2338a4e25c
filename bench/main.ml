(* Reproduction harness + timing benchmarks for every table and figure of
   Milev & Burt, "A Tool and Methodology for AC-Stability Analysis of
   Continuous-Time Closed-Loop Systems" (DATE 2005).

   Running this executable regenerates, in order:
     Table 1   second-order characteristics (exact closed forms)
     Fig 1     the 2 MHz op-amp netlist
     Fig 2     its step response and overshoot
     Fig 3     the open-loop gain/phase margins (traditional baseline)
     Fig 4     the stability plot at the output node
     Table 2   the all-nodes report, grouped by loop
     Fig 5     the bias cell, before/after the paper's 1 pF fix
     S1.2      the "-43.1 at 10.471 MHz" example plot
   followed by a paper-vs-measured summary and Bechamel timings of each
   kernel. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let fmt = Numerics.Engnum.format

(* Collected paper-vs-measured rows for the final summary. *)
let summary : (string * string * string * bool) list ref = ref []

let record ~experiment ~paper ~measured ok =
  summary := (experiment, paper, measured, ok) :: !summary

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)

let run_table1 () =
  section "Table 1 -- key performance characteristics of a second-order system";
  let rows = Control.Second_order.table1 () in
  Control.Second_order.pp_table1 Format.std_formatter rows;
  (* Spot-check the paper's anchor row zeta = 0.2. *)
  let r = List.find (fun r -> r.Control.Second_order.zeta = 0.2) rows in
  let os = Option.get r.Control.Second_order.overshoot_pct in
  let ok =
    Float.abs (os -. 53.) <= 1.
    && Float.abs (r.Control.Second_order.perf_index +. 25.) <= 0.1
  in
  record ~experiment:"Table 1 (zeta=0.2 row)"
    ~paper:"os 53%, PM 20, index -25"
    ~measured:(Printf.sprintf "os %.0f%%, PM %.0f, index %.1f" os
                 (Option.get r.Control.Second_order.phase_margin_deg)
                 r.Control.Second_order.perf_index)
    ok;
  rows

(* ------------------------------------------------------------------ *)
(* Fig 1: the circuit                                                   *)

let run_fig1 () =
  section "Fig 1 -- simple 2 MHz op-amp circuit (connected as a buffer)";
  let circ = Workloads.Opamp_2mhz.buffer () in
  print_string (Circuit.Netlist.to_spice circ);
  let issues = Circuit.Topology.check circ in
  Printf.printf "* structural checks: %s\n"
    (if issues = [] then "clean" else "ISSUES FOUND");
  record ~experiment:"Fig 1 (netlist)" ~paper:"2 MHz op-amp, buffer"
    ~measured:
      (Printf.sprintf "%d devices, checks %s"
         (List.length (Circuit.Netlist.devices circ))
         (if issues = [] then "clean" else "dirty"))
    (issues = []);
  circ

(* ------------------------------------------------------------------ *)
(* Fig 2: step response                                                 *)

let run_fig2 circ =
  section "Fig 2 -- transient step response of the buffer";
  let p = Workloads.Opamp_2mhz.default_params in
  let tr = Engine.Transient.run ~tstop:8e-6 ~tstep:2e-9 circ in
  let w = Engine.Transient.v tr Workloads.Opamp_2mhz.node_out in
  (* Print a readable subsampling of the ringing. *)
  Printf.printf "%12s %12s\n" "t [us]" "v(out) [V]";
  let n = Array.length w.Engine.Waveform.Real.x in
  let step = Int.max 1 (n / 40) in
  let k = ref 0 in
  while !k < n do
    Printf.printf "%12.3f %12.5f\n"
      (w.Engine.Waveform.Real.x.(!k) *. 1e6)
      w.Engine.Waveform.Real.y.(!k);
    k := !k + step
  done;
  let m =
    Engine.Measure.step_metrics ~initial:p.Workloads.Opamp_2mhz.vcm
      ~final:(p.Workloads.Opamp_2mhz.vcm +. p.Workloads.Opamp_2mhz.step) w
  in
  Printf.printf "\nmeasured overshoot: %.1f%% (peak %.4f V at %.3f us)\n"
    m.Engine.Measure.overshoot_pct m.Engine.Measure.peak
    (m.Engine.Measure.peak_time *. 1e6);
  record ~experiment:"Fig 2 (step overshoot)" ~paper:"~50-55 %"
    ~measured:(Printf.sprintf "%.0f %%" m.Engine.Measure.overshoot_pct)
    (m.Engine.Measure.overshoot_pct > 40.
     && m.Engine.Measure.overshoot_pct < 60.);
  m

(* ------------------------------------------------------------------ *)
(* Fig 3: open-loop gain/phase                                          *)

let run_fig3 circ =
  section "Fig 3 -- open-loop gain/phase plot (traditional baseline)";
  let dev, term = Workloads.Opamp_2mhz.feedback_break in
  let sweep = Numerics.Sweep.decade 1e3 1e9 20 in
  let lg = Engine.Loopgain.middlebrook ~sweep circ ~device:dev ~terminal:term in
  let t = lg.Engine.Loopgain.loop_gain in
  let db = Engine.Waveform.Freq.db t in
  let ph = Engine.Waveform.Freq.phase_deg t in
  Printf.printf "%14s %10s %12s\n" "freq [Hz]" "|T| [dB]" "phase [deg]";
  Array.iteri
    (fun k f ->
      if k mod 4 = 0 then
        Printf.printf "%14s %10.2f %12.2f\n" (fmt f) db.(k) ph.(k))
    t.Engine.Waveform.Freq.freqs;
  let m = Engine.Loopgain.margins lg in
  Format.printf "@.%a@." Engine.Measure.pp_margins m;
  let pm = Option.value ~default:Float.nan m.Engine.Measure.phase_margin_deg in
  let fu = Option.value ~default:Float.nan m.Engine.Measure.unity_freq in
  record ~experiment:"Fig 3 (phase margin)" ~paper:"~20 deg"
    ~measured:(Printf.sprintf "%.1f deg" pm)
    (pm > 17. && pm < 23.);
  record ~experiment:"Fig 3 (0 dB crossover)" ~paper:"2.4 MHz"
    ~measured:(Printf.sprintf "%sHz" (fmt fu))
    (fu > 2e6 && fu < 4e6);
  m

(* ------------------------------------------------------------------ *)
(* Fig 4: stability plot at the output                                  *)

let run_fig4 circ =
  section "Fig 4 -- stability plot at the output node";
  let r =
    Stability.Analysis.single_node circ Workloads.Opamp_2mhz.node_out
  in
  let plot = r.Stability.Analysis.plot in
  Printf.printf "%14s %12s\n" "freq [Hz]" "P";
  Array.iteri
    (fun k f ->
      if k mod 8 = 0 then
        Printf.printf "%14s %12.3f\n" (fmt f)
          plot.Stability.Stability_plot.p.(k))
    plot.Stability.Stability_plot.freqs;
  print_string (Stability.Report.single_node_string r);
  (match r.Stability.Analysis.dominant with
   | Some d ->
     record ~experiment:"Fig 4 (peak value)" ~paper:"-28.9"
       ~measured:(Printf.sprintf "%.1f" d.Stability.Peaks.value)
       (d.Stability.Peaks.value < -25. && d.Stability.Peaks.value > -36.);
     record ~experiment:"Fig 4 (natural frequency)" ~paper:"3.16 MHz"
       ~measured:(Printf.sprintf "%sHz" (fmt d.Stability.Peaks.freq))
       (Float.abs ((d.Stability.Peaks.freq /. 3.16e6) -. 1.) < 0.15)
   | None ->
     record ~experiment:"Fig 4 (peak)" ~paper:"-28.9 at 3.16 MHz"
       ~measured:"no peak found" false);
  r

(* ------------------------------------------------------------------ *)
(* Table 2: all-nodes report                                            *)

let run_table2 circ =
  section "Table 2 -- stability peaks for all circuit nodes, by loop";
  let results = Stability.Analysis.all_nodes circ in
  Stability.Report.all_nodes Format.std_formatter results;
  let loops = Stability.Loops.cluster results in
  let main =
    List.filter
      (fun (l : Stability.Loops.loop) ->
        l.Stability.Loops.natural_freq > 2e6
        && l.Stability.Loops.natural_freq < 4.5e6)
      loops
  in
  let locals =
    List.filter
      (fun (l : Stability.Loops.loop) ->
        l.Stability.Loops.natural_freq > 10e6
        && l.Stability.Loops.worst.Stability.Loops.peak.Stability.Peaks.value
           < -1.)
      loops
  in
  record ~experiment:"Table 2 (main loop)" ~paper:"5 nodes at 3.16-3.31 MHz"
    ~measured:
      (match main with
       | [ l ] ->
         Printf.sprintf "%d nodes at %sHz"
           (List.length l.Stability.Loops.members)
           (fmt l.Stability.Loops.natural_freq)
       | _ -> Printf.sprintf "%d loops in band" (List.length main))
    (match main with
     | [ l ] -> List.length l.Stability.Loops.members >= 4
     | _ -> false);
  record ~experiment:"Table 2 (local loops)"
    ~paper:"bias loops at 36-51 MHz"
    ~measured:
      (String.concat ", "
         (List.map
            (fun (l : Stability.Loops.loop) ->
              Printf.sprintf "%sHz" (fmt l.Stability.Loops.natural_freq))
            locals))
    (List.exists
       (fun (l : Stability.Loops.loop) ->
         l.Stability.Loops.natural_freq > 15e6
         && l.Stability.Loops.natural_freq < 80e6)
       locals);
  results

(* ------------------------------------------------------------------ *)
(* Fig 5: bias cell before/after compensation                           *)

let run_fig5 () =
  section "Fig 5 -- zero-TC bias cell annotated; the 1 pF fix at Q3";
  let before = Workloads.Bias_zero_tc.cell () in
  let results = Stability.Analysis.all_nodes before in
  Stability.Annotate.netlist Format.std_formatter before results;
  let deepest rs =
    List.fold_left
      (fun acc (r : Stability.Analysis.node_result) ->
        match r.Stability.Analysis.dominant with
        | Some d -> Float.min acc d.Stability.Peaks.value
        | None -> acc)
      0. rs
  in
  let peak_before = deepest results in
  let fixed =
    Workloads.Bias_zero_tc.cell
      ~params:
        { Workloads.Bias_zero_tc.default_params with compensation = 1e-12 }
      ()
  in
  let results_after = Stability.Analysis.all_nodes fixed in
  let peak_after = deepest results_after in
  Printf.printf
    "\ndeepest local peak before the fix: %.2f; after 1 pF at %s: %.2f\n"
    peak_before Workloads.Bias_zero_tc.node_q3_collector peak_after;
  record ~experiment:"Fig 5 (local loop)"
    ~paper:"~50 MHz loop, PM < 50 deg"
    ~measured:(Printf.sprintf "peak %.1f before fix" peak_before)
    (peak_before < -2.);
  record ~experiment:"Fig 5 (1 pF fix)" ~paper:"loop compensated"
    ~measured:(Printf.sprintf "peak %.1f after fix" peak_after)
    (peak_after > peak_before +. 1.);
  results

(* ------------------------------------------------------------------ *)
(* Section 1.2 example: -43.1 at 10.471 MHz                             *)

let sec12_circuit () =
  (* An RLC tank with exactly the example's signature:
     P = -43.1 -> zeta = 0.1523; fn = 10.471 MHz. *)
  let zeta = Control.Second_order.zeta_of_performance_index (-43.1) in
  let fn = 10.471e6 in
  let c = 1e-9 in
  let l = 1. /. (c *. ((2. *. Float.pi *. fn) ** 2.)) in
  let r = sqrt (l /. c) /. (2. *. zeta) in
  Workloads.Filters.parallel_rlc ~r ~l ~c ()

let run_sec12 () =
  section "Section 1.2 example -- performance index -43.1 at 10.471 MHz";
  let circ = sec12_circuit () in
  let res = Stability.Analysis.single_node circ "n" in
  print_string (Stability.Report.single_node_string res);
  (match res.Stability.Analysis.dominant with
   | Some d ->
     record ~experiment:"S1.2 (example plot)" ~paper:"-43.1 at 10.471 MHz"
       ~measured:
         (Printf.sprintf "%.1f at %sHz" d.Stability.Peaks.value
            (fmt d.Stability.Peaks.freq))
       (Float.abs (d.Stability.Peaks.value +. 43.1) < 1.
        && Float.abs ((d.Stability.Peaks.freq /. 10.471e6) -. 1.) < 0.01)
   | None ->
     record ~experiment:"S1.2 (example plot)" ~paper:"-43.1 at 10.471 MHz"
       ~measured:"no peak" false);
  res

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)

let run_ablations () =
  section "Ablation 1 -- sweep density and zoom refinement (peak accuracy)";
  (* A sharp tank (zeta = 0.0158, true peak -4000): coarse grids bias the
     peak low; the zoom refinement recovers it from a 10-points-per-decade
     scan. *)
  let r = 1000. in
  let circ = Workloads.Filters.parallel_rlc ~r () in
  let _, zeta = Workloads.Filters.parallel_rlc_theory ~r () in
  let truth = Control.Second_order.performance_index zeta in
  Printf.printf "true peak: %.1f (zeta %.4f)\n" truth zeta;
  Printf.printf "%8s %8s %12s %10s\n" "ppd" "refine" "peak" "error";
  List.iter
    (fun (ppd, refine) ->
      let options =
        { Stability.Analysis.default_options with
          sweep = Numerics.Sweep.decade 1e3 1e9 ppd;
          refine }
      in
      let p =
        match
          (Stability.Analysis.single_node ~options circ "n")
            .Stability.Analysis.dominant
        with
        | Some d -> d.Stability.Peaks.value
        | None -> Float.nan
      in
      Printf.printf "%8d %8s %12.1f %9.1f%%\n" ppd
        (if refine then "yes" else "no")
        p
        (100. *. (p -. truth) /. Float.abs truth))
    [ (10, false); (30, false); (100, false); (300, false); (10, true);
      (30, true) ];

  section "Ablation 2 -- shared factorisation vs netlist-level probing";
  (* The all-nodes mode factors the AC matrix once per frequency and
     back-substitutes per net; the naive path rebuilds and refactors per
     net. Same numbers, different cost. *)
  let opamp = Workloads.Opamp_2mhz.buffer () in
  let sweep = Numerics.Sweep.decade 1e3 1e9 10 in
  let nodes = Circuit.Netlist.node_names opamp in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let probe = Stability.Probe.prepare opamp in
  let fast, t_fast =
    time (fun () -> Stability.Probe.response_many probe ~sweep nodes)
  in
  let _slow, t_slow =
    time (fun () ->
        List.map
          (fun n ->
            (n, Stability.Probe.response_via_netlist opamp ~sweep n))
          nodes)
  in
  Printf.printf
    "%d nets x %d frequencies: shared factorisation %.3f s, per-net AC \
     runs %.3f s (%.1fx)\n"
    (List.length nodes)
    (Numerics.Sweep.count sweep)
    t_fast t_slow (t_slow /. t_fast);
  ignore fast;

  section "Ablation 3 -- fixed vs adaptive transient on the Fig 2 run";
  let fixed, t_fixed =
    time (fun () -> Engine.Transient.run ~tstop:8e-6 ~tstep:2e-9 opamp)
  in
  let adap, t_adap =
    time (fun () ->
        Engine.Transient.run_adaptive ~tstop:8e-6 ~dt_start:1e-9
          ~lte_tol:5e-4 opamp)
  in
  let os r =
    (Engine.Measure.step_metrics ~initial:2.5 ~final:2.55
       (Engine.Transient.v r "out"))
      .Engine.Measure.overshoot_pct
  in
  Printf.printf
    "fixed: %d pts, %.2f s, overshoot %.0f%%; adaptive: %d pts, %.2f s, \
     overshoot %.0f%%\n"
    (Array.length fixed.Engine.Transient.times)
    t_fixed (os fixed)
    (Array.length adap.Engine.Transient.times)
    t_adap (os adap)

(* ------------------------------------------------------------------ *)
(* Compiled solve path: sweep throughput, counters, peak equivalence   *)

(* The seed pipeline, reproduced through the public API: dense per-point
   factorisation on the coarse sweep, then one dense zoom re-probe per
   (node, peak) — refinement one node at a time. This is what the tool
   did before the compiled solve path and batched refinement landed. *)
let seed_all_nodes probe nodes ~sweep =
  let pts = Numerics.Sweep.points sweep in
  let fmin = pts.(0) and fmax = pts.(Array.length pts - 1) in
  let responses =
    Stability.Probe.response_many ~backend:`Dense probe ~sweep nodes
  in
  List.filter_map
    (fun (node, w) ->
      let mag = Numerics.Waveform.Freq.mag w in
      let maxm = Array.fold_left Float.max 0. mag in
      if (not (Float.is_finite maxm)) || maxm < 1e-9 then None
      else begin
        let plot = Stability.Stability_plot.of_response w in
        let peaks = Stability.Peaks.analyze ~min_magnitude:0.2 plot in
        let refined =
          List.map
            (fun (p : Stability.Peaks.peak) ->
              let lo = Float.max fmin (p.freq /. 2.) in
              let hi = Float.min fmax (p.freq *. 2.) in
              if hi <= lo *. 1.01 then p
              else begin
                let zoom = Numerics.Sweep.decade lo hi 600 in
                match
                  Stability.Probe.response_many ~backend:`Dense probe
                    ~sweep:zoom [ node ]
                with
                | [ (_, wz) ] ->
                  (Stability.Peaks.analyze ~min_magnitude:0.1
                     (Stability.Stability_plot.of_response wz)
                   |> List.filter
                     (fun (q : Stability.Peaks.peak) -> q.kind = p.kind)
                   |> List.sort
                     (fun (a : Stability.Peaks.peak) b ->
                       compare
                         (Float.abs (log (a.freq /. p.freq)))
                         (Float.abs (log (b.freq /. p.freq))))
                   |> function
                   | best :: _ -> best
                   | [] -> p)
                | _ -> p
              end)
            peaks
        in
        Some (node, Stability.Peaks.dominant refined)
      end)
    responses

let run_acplan_bench () =
  section "Compiled solve path -- sweep throughput vs the dense baseline";
  let opamp = Workloads.Opamp_2mhz.buffer () in
  let probe = Stability.Probe.prepare opamp in
  let sweep = Numerics.Sweep.decade 1e3 1e9 40 in
  let points = Numerics.Sweep.count sweep in
  let all = Circuit.Netlist.node_names opamp in
  let single = [ Workloads.Opamp_2mhz.node_out ] in
  let best_of_3 f =
    ignore (f ());                  (* warm-up: page in the code paths *)
    let best = ref Float.infinity in
    let last = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      best := Float.min !best (Unix.gettimeofday () -. t0);
      last := Some r
    done;
    (Option.get !last, !best)
  in
  let time_probe backend nodes =
    snd
      (best_of_3 (fun () ->
           Stability.Probe.response_many ~backend probe ~sweep nodes))
  in
  let t_dense_1 = time_probe `Dense single in
  let t_kern_1 = time_probe `Auto single in
  let t_dense_all = time_probe `Dense all in
  let t_kern_all = time_probe `Auto all in
  let pps t = Float.of_int points /. t in
  Printf.printf "raw probe sweeps (no refinement), %d points:\n" points;
  Printf.printf "%12s %6s %10s %14s %9s\n" "mode" "nets" "time [s]"
    "points/s" "speedup";
  Printf.printf "%12s %6d %10.4f %14.0f %9s\n" "dense" 1 t_dense_1
    (pps t_dense_1) "1.0x";
  Printf.printf "%12s %6d %10.4f %14.0f %8.1fx\n" "compiled" 1 t_kern_1
    (pps t_kern_1) (t_dense_1 /. t_kern_1);
  Printf.printf "%12s %6d %10.4f %14.0f %9s\n" "dense" (List.length all)
    t_dense_all (pps t_dense_all) "1.0x";
  Printf.printf "%12s %6d %10.4f %14.0f %8.1fx\n" "compiled"
    (List.length all) t_kern_all (pps t_kern_all) (t_dense_all /. t_kern_all);

  (* End-to-end all-nodes analysis: the seed pipeline (dense solves,
     one zoom re-probe per node and peak) against the compiled kernel
     with batched refinement. Same sweep, same refinement density. *)
  let opts =
    { Stability.Analysis.default_options with sweep }
  in
  let seed_r, t_seed =
    best_of_3 (fun () -> seed_all_nodes probe all ~sweep)
  in
  let new_r, t_new =
    best_of_3 (fun () ->
        Stability.Analysis.all_nodes_prepared ~options:opts probe)
  in
  Printf.printf
    "\nend-to-end all-nodes analysis (coarse + zoom refinement):\n\
     seed pipeline (dense, per-node refine)    %.4f s\n\
     compiled pipeline (kernel, batched refine) %.4f s  (%.1fx)\n"
    t_seed t_new (t_seed /. t_new);
  (* Validity: both pipelines must find the same dominant peaks. *)
  let seed_new_ok =
    List.for_all
      (fun (r : Stability.Analysis.node_result) ->
        match
          (List.assoc_opt r.Stability.Analysis.node seed_r,
           r.Stability.Analysis.dominant)
        with
        | Some (Some p), Some q ->
          Float.abs ((q.Stability.Peaks.freq /. p.Stability.Peaks.freq) -. 1.)
          < 1e-3
          && Float.abs
               ((q.Stability.Peaks.value /. p.Stability.Peaks.value) -. 1.)
             < 1e-3
        | Some None, None | None, _ -> true
        | _ -> false)
      new_r
  in
  record ~experiment:"AC plan (all-nodes speedup)"
    ~paper:">= 3x vs seed dense path"
    ~measured:(Printf.sprintf "%.1fx, dominants match: %b"
                 (t_seed /. t_new) seed_new_ok)
    (t_seed /. t_new >= 3. && seed_new_ok);

  (* The counter contract: one symbolic analysis per sweep, one kernel
     refactorisation per frequency point, however many nets ride along. *)
  let sym0 = Engine.Ac_plan.analyses () in
  let before = Engine.Kernel.totals () in
  ignore (Stability.Probe.response_many probe ~sweep all);
  let after = Engine.Kernel.totals () in
  let d_sym = Engine.Ac_plan.analyses () - sym0 in
  let d_num = after.Engine.Kernel.points - before.Engine.Kernel.points in
  let d_fb = after.Engine.Kernel.fallback - before.Engine.Kernel.fallback in
  Printf.printf
    "\ncounters over one all-nodes sweep: %d symbolic, %d numeric \
     (%d points), %d fallbacks\n"
    d_sym d_num points d_fb;
  record ~experiment:"AC plan (factorisation counters)"
    ~paper:"1 symbolic/sweep, 1 numeric/point"
    ~measured:(Printf.sprintf "%d symbolic, %d numeric" d_sym d_num)
    (d_sym = 1 && d_num = points && d_fb = 0);

  (* Peak equivalence: the compiled path is a performance refactor, not
     a new analysis — dominant peaks must match the dense path within
     0.1%. *)
  let opts backend =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e9 20;
      backend }
  in
  let dense_r =
    Stability.Analysis.all_nodes_prepared ~options:(opts `Dense) probe
  in
  let kern_r =
    Stability.Analysis.all_nodes_prepared ~options:(opts `Auto) probe
  in
  let worst_freq = ref 0. and worst_val = ref 0. in
  List.iter2
    (fun (a : Stability.Analysis.node_result)
         (b : Stability.Analysis.node_result) ->
      match (a.Stability.Analysis.dominant, b.Stability.Analysis.dominant) with
      | Some p, Some q ->
        worst_freq :=
          Float.max !worst_freq
            (Float.abs ((q.Stability.Peaks.freq /. p.Stability.Peaks.freq)
                        -. 1.));
        worst_val :=
          Float.max !worst_val
            (Float.abs ((q.Stability.Peaks.value /. p.Stability.Peaks.value)
                        -. 1.))
      | None, None -> ()
      | _ -> worst_freq := 1.)
    dense_r kern_r;
  Printf.printf
    "peak equivalence dense vs compiled: worst fn error %.2e, worst \
     index error %.2e\n"
    !worst_freq !worst_val;
  record ~experiment:"AC plan (peak equivalence)"
    ~paper:"fn and index within 0.1%"
    ~measured:
      (Printf.sprintf "fn %.2e, index %.2e" !worst_freq !worst_val)
    (!worst_freq < 1e-3 && !worst_val < 1e-3);

  (* Machine-readable drop for trend tracking. *)
  let oc = open_out "BENCH_acplan.json" in
  Printf.fprintf oc
    "{\n\
    \  \"circuit\": \"opamp_2mhz buffer\",\n\
    \  \"unknowns\": %d,\n\
    \  \"points\": %d,\n\
    \  \"nets\": %d,\n\
    \  \"single_node\": { \"dense_s\": %.6f, \"kernel_s\": %.6f, \
     \"dense_pps\": %.1f, \"kernel_pps\": %.1f, \"speedup\": %.2f },\n\
    \  \"all_nodes\": { \"dense_s\": %.6f, \"kernel_s\": %.6f, \
     \"dense_pps\": %.1f, \"kernel_pps\": %.1f, \"speedup\": %.2f },\n\
    \  \"pipeline\": { \"seed_s\": %.6f, \"kernel_s\": %.6f, \"speedup\": \
     %.2f, \"dominants_match\": %b },\n\
    \  \"counters\": { \"symbolic\": %d, \"numeric\": %d, \"fallback\": %d \
     },\n\
    \  \"equivalence\": { \"worst_fn_rel\": %.3e, \"worst_index_rel\": \
     %.3e }\n\
     }\n"
    probe.Stability.Probe.mna.Engine.Mna.size points (List.length all)
    t_dense_1 t_kern_1 (pps t_dense_1) (pps t_kern_1)
    (t_dense_1 /. t_kern_1) t_dense_all t_kern_all (pps t_dense_all)
    (pps t_kern_all)
    (t_dense_all /. t_kern_all)
    t_seed t_new (t_seed /. t_new) seed_new_ok
    d_sym d_num d_fb !worst_freq !worst_val;
  close_out oc;
  Printf.printf "wrote BENCH_acplan.json\n"

(* ------------------------------------------------------------------ *)
(* Compiled kernels: flattened factor/solve programs vs the dense oracle *)

(* A work-counter gauge as an integer (0 when never set). *)
let gauge name =
  match Obs.Gauge.find name with
  | Some g -> int_of_float (Obs.Gauge.value g)
  | None -> 0

(* What the kernel replays at one frequency: the plan's matrix
   refactored along its frozen symbolic analysis (fresh partial
   pivoting in the frozen column order where the frozen pivots go
   stale), then one batched solve. *)
let scmat_replay plan ~omega bs =
  let a = Engine.Ac_plan.matrix_at plan ~omega in
  let sym = Engine.Ac_plan.symbolic plan in
  let f =
    try Numerics.Scmat.refactor ~pivot_tol:Engine.Ac_plan.pivot_tol sym a
    with Numerics.Sparse.Singular _ -> Numerics.Scmat.repivot sym a
  in
  Numerics.Scmat.lu_solve_many f bs

(* The Scmat replay of a whole probe sweep, on the plan the probe layer
   compiles for it. *)
let replay_sweep probe ~sweep nodes =
  let plan = Stability.Probe.plan probe ~sweep in
  let mna = probe.Stability.Probe.mna in
  let idx = List.map (Engine.Mna.node_index mna) nodes in
  let bs =
    Array.of_list
      (List.map
         (fun i ->
           let b = Array.make mna.Engine.Mna.size Numerics.Cx.zero in
           b.(i) <- Numerics.Cx.one;
           b)
         idx)
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

(* The kernel is the only compiled solve path, so besides the
   throughput gate against the dense oracle everything here is exact:
   bit identity against the Scmat operations it replays, sequential =
   parallel, the compile/point counter budget, and the selected
   solve's multiply-add counts. *)
let run_kernel_bench ~smoke () =
  section "Compiled kernels -- flattened solve programs vs the dense oracle";
  let opamp = Workloads.Opamp_2mhz.buffer () in
  let probe = Stability.Probe.prepare opamp in
  let ppd = if smoke then 20 else 120 in
  let sweep = Numerics.Sweep.decade 1e3 1e9 ppd in
  let points = Numerics.Sweep.count sweep in
  let all = Circuit.Netlist.node_names opamp in
  let best_of_3 f =
    ignore (f ());
    let best = ref Float.infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  (* The sweep-heavy workload the kernel targets: every net probed, the
     whole sweep through one backend, sequentially — so the comparison
     measures the solve program, not the scheduler. *)
  let time_probe backend =
    best_of_3 (fun () ->
        Stability.Probe.response_many ~backend ~parallel:`Seq probe ~sweep
          all)
  in
  let t_dense = time_probe `Dense in
  let t_kernel = time_probe `Auto in
  let speedup = t_dense /. t_kernel in
  let pps t = Float.of_int points /. t in
  Printf.printf
    "all-nodes sweep, %d nets x %d points (sequential):\n\
     %12s %10s %14s %9s\n\
     %12s %10.4f %14.0f %9s\n\
     %12s %10.4f %14.0f %8.1fx\n"
    (List.length all) points "backend" "time [s]" "points/s" "speedup"
    "dense" t_dense (pps t_dense) "1.0x" "kernel" t_kernel (pps t_kernel)
    speedup;
  (* Smoke runs on loaded CI boxes only assert "never slower"; the full
     bench holds the kernel to its real target. *)
  let target = if smoke then 1.0 else 2.0 in
  record ~experiment:"Kernel (all-nodes sweep speedup)"
    ~paper:(Printf.sprintf ">= %.1fx vs dense" target)
    ~measured:(Printf.sprintf "%.2fx" speedup)
    (speedup >= target);

  (* Bit identity: raw IEEE bits of every net at every point, multi-RHS
     and single-RHS batch shapes both. *)
  let eq_sweep = Numerics.Sweep.decade 1e3 1e9 (if smoke then 10 else 40) in
  let bits_equal a b =
    List.for_all2
      (fun (_, (w1 : Numerics.Waveform.Freq.t))
           (_, (w2 : Numerics.Waveform.Freq.t)) ->
        let n = Array.length w1.Numerics.Waveform.Freq.h in
        let ok = ref (n = Array.length w2.Numerics.Waveform.Freq.h) in
        for k = 0 to n - 1 do
          let a = w1.Numerics.Waveform.Freq.h.(k)
          and b = w2.Numerics.Waveform.Freq.h.(k) in
          if Int64.bits_of_float a.Complex.re
             <> Int64.bits_of_float b.Complex.re
             || Int64.bits_of_float a.Complex.im
                <> Int64.bits_of_float b.Complex.im
          then ok := false
        done;
        !ok)
      a b
  in
  let probe_eq ~parallel nodes =
    Stability.Probe.response_many ~parallel probe ~sweep:eq_sweep nodes
  in
  let replay_eq nodes =
    bits_equal (replay_sweep probe ~sweep:eq_sweep nodes)
      (probe_eq ~parallel:`Seq nodes)
  in
  let identical =
    replay_eq all && replay_eq [ Workloads.Opamp_2mhz.node_out ]
  in
  record ~experiment:"Kernel (bit identity vs Scmat)"
    ~paper:"identical IEEE bits"
    ~measured:(if identical then "identical" else "DIFFERS") identical;

  (* Chunked pooled execution must not enter the arithmetic. *)
  let seq_par =
    bits_equal (probe_eq ~parallel:`Seq all) (probe_eq ~parallel:`Par all)
  in
  record ~experiment:"Kernel (seq = par)" ~paper:"bit-identical"
    ~measured:(if seq_par then "identical" else "DIFFERS") seq_par;

  (* Counter contract: one compile per sweep, every point advanced
     through the kernel, no stale-pivot fallbacks on this deck — and a
     shared pre-compiled kernel recompiles nothing. *)
  let before = Engine.Kernel.totals () in
  ignore (Stability.Probe.response_many ~parallel:`Seq probe ~sweep all);
  let after = Engine.Kernel.totals () in
  let d_compiles = after.Engine.Kernel.compiles - before.Engine.Kernel.compiles in
  let d_points = after.Engine.Kernel.points - before.Engine.Kernel.points in
  let d_fb = after.Engine.Kernel.fallback - before.Engine.Kernel.fallback in
  let kern = Engine.Kernel.compile (Stability.Probe.plan probe ~sweep) in
  let base = (Engine.Kernel.totals ()).Engine.Kernel.compiles in
  ignore
    (Stability.Probe.response_many ~kernel:kern ~parallel:`Seq probe ~sweep
       all);
  ignore
    (Stability.Probe.response_many ~kernel:kern ~parallel:`Seq probe ~sweep
       all);
  let warm_extra =
    (Engine.Kernel.totals ()).Engine.Kernel.compiles - base
  in
  Printf.printf
    "counters over one all-nodes sweep: %d compiles, %d points (%d \
     expected), %d fallbacks; warm shared-kernel sweeps recompiled %d\n"
    d_compiles d_points points d_fb warm_extra;
  record ~experiment:"Kernel (counter budget)"
    ~paper:"1 compile/sweep, 1 point advance/point, 0 warm recompiles"
    ~measured:
      (Printf.sprintf "%d compiles, %d points, %d warm" d_compiles d_points
         warm_extra)
    (d_compiles = 1 && d_points = points && d_fb = 0 && warm_extra = 0);

  (* Work counters of the selected solve: substitution multiply-adds per
     point ([kernel.solve_madds]) against the full solve's m (nnz(L+U)
     - n), on the synth_scale decks and the op-amp. Counts, not
     timings, so they are exact on any host. *)
  let solve_counts circ nets =
    let probe = Stability.Probe.prepare circ in
    let kern =
      Engine.Kernel.compile
        (Stability.Probe.plan probe ~sweep:(Numerics.Sweep.decade 1e3 1e9 6))
    in
    let n = Engine.Kernel.size kern in
    let lu_nnz = gauge "kernel.lu_nnz" in
    let sel =
      Array.of_list
        (List.map (Engine.Mna.node_index probe.Stability.Probe.mna) nets)
    in
    let rhs =
      Array.map
        (fun i ->
          let b = Array.make n Numerics.Cx.zero in
          b.(i) <- Numerics.Cx.one;
          b)
        sel
    in
    ignore (Engine.Kernel.select kern ~rhs ~sel);
    (Array.length sel * (lu_nnz - n), gauge "kernel.solve_madds")
  in
  let tree = Workloads.Synth.rc_tree ~depth:8 ~fanout:2 () in
  let inner = Workloads.Synth.tree_count ~depth:7 ~fanout:2 in
  let amp = Workloads.Synth.amp_array ~stages:40 () in
  (* Each deck with the counts it must reproduce; the amplifier array's
     cover selection must also cost at most 0.3x the full solve. *)
  let work =
    [ ("synth tree d8f2, 3 leaves",
       tree,
       List.map (fun i -> Workloads.Synth.tree_node (inner + i)) [ 0; 100; 255 ],
       (3063, 72), None);
      ("synth amp_array_40, cover",
       amp, (Staticanalysis.Report.analyze amp).Staticanalysis.Report.cover,
       (36800, 9074), Some 0.3);
      ("synth mesh 16x16, 3 nets",
       Workloads.Synth.rc_mesh ~rows:16 ~cols:16 (),
       List.map (fun i -> Workloads.Synth.mesh_node (5 + i) (10 - i))
         [ 0; 1; 2 ],
       (11019, 3853), None);
      ("opamp_2mhz buffer, all nets", opamp, all, (819, 390), None) ]
  in
  Printf.printf "substitution multiply-adds per point:\n%-30s %10s %10s %7s\n"
    "deck" "full" "selected" "ratio";
  List.iter
    (fun (name, circ, nets, (want_full, want_sel), bound) ->
      let full, sel = solve_counts circ nets in
      let ratio = float_of_int sel /. float_of_int full in
      Printf.printf "%-30s %10d %10d %7.3f\n" name full sel ratio;
      record
        ~experiment:(Printf.sprintf "Kernel (solve madds, %s)" name)
        ~paper:(Printf.sprintf "%d full, %d selected" want_full want_sel)
        ~measured:(Printf.sprintf "%d full, %d selected" full sel)
        (full = want_full && sel = want_sel);
      Option.iter
        (fun b ->
          record
            ~experiment:(Printf.sprintf "Kernel (selected solve, %s)" name)
            ~paper:(Printf.sprintf "<= %.1fx the full solve" b)
            ~measured:(Printf.sprintf "%.3fx" ratio)
            (ratio <= b))
        bound)
    work;

  (* Peak equivalence through the full analysis pipeline (coarse sweep +
     zoom refinement) against the dense oracle, within 0.1%. *)
  let opts backend =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e9 (if smoke then 10 else 20);
      backend }
  in
  let dense_r =
    Stability.Analysis.all_nodes_prepared ~options:(opts `Dense) probe
  in
  let kern_r =
    Stability.Analysis.all_nodes_prepared ~options:(opts `Auto) probe
  in
  let worst = ref 0. in
  List.iter2
    (fun (a : Stability.Analysis.node_result)
         (b : Stability.Analysis.node_result) ->
      match (a.Stability.Analysis.dominant, b.Stability.Analysis.dominant)
      with
      | Some p, Some q ->
        worst :=
          Float.max !worst
            (Float.max
               (Float.abs
                  ((q.Stability.Peaks.freq /. p.Stability.Peaks.freq) -. 1.))
               (Float.abs
                  ((q.Stability.Peaks.value /. p.Stability.Peaks.value)
                   -. 1.)))
      | None, None -> ()
      | _ -> worst := 1.)
    dense_r kern_r;
  record ~experiment:"Kernel (peak equivalence)"
    ~paper:"fn and index within 0.1%"
    ~measured:(Printf.sprintf "worst rel err %.2e" !worst)
    (!worst < 1e-3);

  if not smoke then begin
    let oc = open_out "BENCH_kernel.json" in
    Printf.fprintf oc
      "{\n\
      \  \"circuit\": \"opamp_2mhz buffer\",\n\
      \  \"unknowns\": %d,\n\
      \  \"points\": %d,\n\
      \  \"nets\": %d,\n\
      \  \"all_nodes\": { \"dense_s\": %.6f, \"kernel_s\": %.6f, \
       \"dense_pps\": %.1f, \"kernel_pps\": %.1f, \"speedup\": %.2f },\n\
      \  \"bit_identical\": %b,\n\
      \  \"seq_par_identical\": %b,\n\
      \  \"counters\": { \"compiles\": %d, \"points\": %d, \"fallback\": \
       %d, \"warm_recompiles\": %d, \"batch_max\": %d },\n\
      \  \"equivalence\": { \"worst_rel\": %.3e }\n\
       }\n"
      probe.Stability.Probe.mna.Engine.Mna.size points (List.length all)
      t_dense t_kernel (pps t_dense) (pps t_kernel) speedup identical seq_par
      d_compiles d_points d_fb warm_extra
      (Engine.Kernel.totals ()).Engine.Kernel.batch_max !worst;
    close_out oc;
    Printf.printf "wrote BENCH_kernel.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Persistent pool: worker scaling, plan reuse, determinism            *)

let run_pool_bench ~smoke () =
  section "Persistent pool -- worker scaling and determinism";
  let circ = Workloads.Opamp_2mhz.buffer () in
  let probe = Stability.Probe.prepare circ in
  let ppd = 10 in
  let refine_per_decade = 120 in
  let sweep = Numerics.Sweep.decade 1e3 1e9 ppd in
  let all = Circuit.Netlist.node_names circ in
  let reps = if smoke then 1 else 5 in
  let best_of f =
    ignore (f ());
    let best = ref Float.infinity in
    let last = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      best := Float.min !best (Unix.gettimeofday () -. t0);
      last := Some r
    done;
    (Option.get !last, !best)
  in
  let max_jobs = Int.max 1 (Domain.recommended_domain_count ()) in
  (* Worker-scaling curve on the real end-to-end pipeline. *)
  let opts =
    { Stability.Analysis.default_options with
      sweep;
      refine_per_decade;
      parallel = `Par }
  in
  let curve_jobs =
    List.sort_uniq compare [ 1; 2; 4; max_jobs ]
    |> List.filter (fun j -> smoke = false || j <= 2)
  in
  let curve =
    List.map
      (fun j ->
        Parallel.Pool.set_jobs j;
        let _, t =
          best_of (fun () ->
              Stability.Analysis.all_nodes_prepared ~options:opts probe)
        in
        Printf.printf "all-nodes pipeline, jobs=%d: %.4f s\n%!" j t;
        (j, t))
      curve_jobs
  in
  Parallel.Pool.set_jobs max_jobs;

  (* Determinism of the full pipeline: pooled equals sequential exactly. *)
  let seq_r =
    Stability.Analysis.all_nodes_prepared
      ~options:{ opts with parallel = `Seq } probe
  in
  let par_r =
    Stability.Analysis.all_nodes_prepared
      ~options:{ opts with parallel = `Par } probe
  in
  let deterministic = seq_r = par_r in
  record ~experiment:"Pool (determinism)" ~paper:"bit-identical results"
    ~measured:(Printf.sprintf "seq = par: %b" deterministic) deterministic;

  (* Counter contract with cross-sweep plan reuse: one symbolic analysis
     for the whole coarse + refine pipeline. *)
  let sym0 = Engine.Ac_plan.analyses () in
  let before = Engine.Kernel.totals () in
  ignore (Stability.Analysis.all_nodes_prepared ~options:opts probe);
  let after = Engine.Kernel.totals () in
  let d_sym = Engine.Ac_plan.analyses () - sym0 in
  let d_num = after.Engine.Kernel.points - before.Engine.Kernel.points in
  let d_fb = after.Engine.Kernel.fallback - before.Engine.Kernel.fallback in
  Printf.printf
    "counters over one coarse+refine pipeline: %d symbolic, %d numeric, \
     %d fallbacks\n"
    d_sym d_num d_fb;
  record ~experiment:"Pool (plan reuse counters)"
    ~paper:"1 symbolic per full run"
    ~measured:(Printf.sprintf "%d symbolic, %d fallbacks" d_sym d_fb)
    (d_sym = 1 && d_fb = 0);

  (* Monte-Carlo through the job queue: sequential vs pooled, matching
     samples. *)
  let n_mc = if smoke then 4 else 32 in
  let mc_opts =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e4 1e8 10;
      refine = false }
  in
  let analyse c =
    match
      (Stability.Analysis.single_node ~options:mc_opts c
         Workloads.Opamp_2mhz.node_out)
        .Stability.Analysis.dominant
    with
    | Some d -> Option.value ~default:1. d.Stability.Peaks.zeta
    | None -> 1.
  in
  let (mc_seq : float Tool.Montecarlo.run), t_mc_seq =
    best_of (fun () ->
        Tool.Montecarlo.run ~parallel:`Seq ~n:n_mc ~seed:7 circ analyse)
  in
  let mc_par, t_mc_par =
    best_of (fun () ->
        Tool.Montecarlo.run ~parallel:`Par ~n:n_mc ~seed:7 circ analyse)
  in
  let mc_same =
    List.for_all2
      (fun (s1, r1) (s2, r2) ->
        s1 = s2
        &&
        match (r1, r2) with
        | Ok a, Ok b -> a = b
        | Error _, Error _ -> true
        | _ -> false)
      mc_seq.Tool.Montecarlo.samples mc_par.Tool.Montecarlo.samples
  in
  Printf.printf
    "montecarlo n=%d: sequential %.3f s, pooled %.3f s, samples match: %b\n"
    n_mc t_mc_seq t_mc_par mc_same;
  record ~experiment:"Pool (montecarlo samples)" ~paper:"seed-deterministic"
    ~measured:(Printf.sprintf "match: %b" mc_same) mc_same;

  if not smoke then begin
    let oc = open_out "BENCH_pool.json" in
    Printf.fprintf oc
      "{\n\
      \  \"workload\": \"opamp_2mhz all-nodes coarse+refine\",\n\
      \  \"unknowns\": %d,\n\
      \  \"nets\": %d,\n\
      \  \"max_jobs\": %d,\n\
      \  \"deterministic_pipeline\": %b,\n\
      \  \"jobs_curve\": [ %s ],\n\
      \  \"counters\": { \"symbolic\": %d, \"numeric\": %d, \"fallback\": \
       %d },\n\
      \  \"montecarlo\": { \"n\": %d, \"seq_s\": %.6f, \"pool_s\": %.6f, \
       \"samples_match\": %b },\n\
      \  \"obs\": { %s }\n\
       }\n"
      probe.Stability.Probe.mna.Engine.Mna.size (List.length all) max_jobs
      deterministic
      (String.concat ", "
         (List.map
            (fun (j, t) ->
              Printf.sprintf "{ \"jobs\": %d, \"s\": %.6f }" j t)
            curve))
      d_sym d_num d_fb n_mc t_mc_seq t_mc_par mc_same
      (* Same registry the in-run asserts read: scheduler health for the
         whole benchmark process (jobs dealt, chunks run, steals,
         high-water queue depth). Busy-time counters are per worker and
         machine-shaped, so only the scheduler counters are recorded. *)
      (String.concat ", "
         (List.filter_map
            (fun (name, v) ->
              if String.starts_with ~prefix:"pool." name
                 && not (String.ends_with ~suffix:"busy_ns" name)
              then Some (Printf.sprintf "\"%s\": %d" name v)
              else None)
            (Obs.Counter.snapshot ())));
    close_out oc;
    Printf.printf "wrote BENCH_pool.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Scale: synthetic 1k-10k-unknown circuits across worker counts        *)

(* The pool's jobs curve, measured where it matters: compiled-kernel
   sweeps over decks big enough that scheduling is the variable, not
   the noise floor. The speedup gate scales with the hardware — a CI
   box with fewer than 4 cores cannot show a 4-worker speedup (the pool
   clamps to the core count precisely so that asking for more workers
   than cores stops being a slowdown), so there the gate asserts the
   curve is never inverted again (>= [floor_target]); on >= 4 cores it
   demands the real >= 1.7x. Both the core count and the target actually
   applied are recorded in BENCH_scale.json. *)

let scale_speedup_target ~cores =
  if cores >= 4 then 1.7 else 0.9

let run_scale_bench ~smoke () =
  section "Scale -- synthetic large circuits, sizes x jobs";
  let cores = Domain.recommended_domain_count () in
  let max_jobs = 4 in
  let reps = if smoke then 3 else 2 in
  let best_of f =
    ignore (f ());
    let best = ref Float.infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let mesh_nodes = [ Workloads.Synth.mesh_node 31 31;
                     Workloads.Synth.mesh_node 16 16;
                     Workloads.Synth.mesh_node 31 0;
                     Workloads.Synth.mesh_node 0 31 ] in
  (* Each deck carries the LU fill bound nnz(L+U)/nnz(A) its family must
     keep under the fill-reducing column order: a tree factors without
     fill, a 2-D mesh cannot, the amplifier arrays stay near the matrix
     (1.67x measured). *)
  let tree_fill_bound = 1.5 in
  let workloads =
    if smoke then
      (* One >= 1k-unknown deck at low density: enough for the
         never-inverted gate without blowing up runtest time. *)
      [ ("mesh_32x32",
         Workloads.Synth.rc_mesh ~rows:32 ~cols:32 (),
         mesh_nodes,
         Numerics.Sweep.decade 1e4 1e8 3, 6.0) ]
    else begin
      let tree_n = Workloads.Synth.tree_count ~depth:12 ~fanout:2 in
      [ ("mesh_32x32",
         Workloads.Synth.rc_mesh ~rows:32 ~cols:32 (),
         mesh_nodes,
         Numerics.Sweep.decade 1e3 1e9 8, 6.0);
        ("amp_array_600",
         Workloads.Synth.amp_array ~stages:600 (),
         [ "in"; Workloads.Synth.amp_stage_out 0;
           Workloads.Synth.amp_stage_out 150;
           Workloads.Synth.amp_stage_out 300;
           Workloads.Synth.amp_stage_out 450;
           Workloads.Synth.amp_stage_out 599 ],
         Numerics.Sweep.decade 1e3 1e9 6, 2.0);
        ("rc_tree_d12_f2",
         Workloads.Synth.rc_tree ~depth:12 ~fanout:2 (),
         [ Workloads.Synth.tree_node 0;
           Workloads.Synth.tree_node (tree_n / 2);
           Workloads.Synth.tree_node (tree_n - 1) ],
         Numerics.Sweep.decade 1e3 1e9 6, tree_fill_bound) ]
    end
  in
  (* Compile the deck's kernel and gate its fill against [bound]. *)
  let compile_gated name probe ~sweep bound =
    let plan = Stability.Probe.plan probe ~sweep in
    let kernel = Engine.Kernel.compile plan in
    let nnz_a = Engine.Ac_plan.nnz plan in
    let lu_nnz = gauge "kernel.lu_nnz" and lu_madds = gauge "kernel.lu_madds" in
    let fill = float_of_int lu_nnz /. float_of_int nnz_a in
    record
      ~experiment:(Printf.sprintf "Scale fill (%s)" name)
      ~paper:(Printf.sprintf "nnz(L+U) <= %.1fx nnz(A)" bound)
      ~measured:
        (Printf.sprintf "%.2fx (%d / %d), %d madds/point" fill lu_nnz nnz_a
           lu_madds)
      (fill <= bound);
    (kernel, (nnz_a, lu_nnz, lu_madds))
  in
  (* The smoke leg's tree sweeps in about 2 ms, too short to time a jobs
     curve on: it gates fill only. *)
  if smoke then
    ignore
      (compile_gated "rc_tree_d9_f2"
         (Stability.Probe.prepare
            (Workloads.Synth.rc_tree ~depth:9 ~fanout:2 ()))
         ~sweep:(Numerics.Sweep.decade 1e4 1e8 3) tree_fill_bound);
  let saved_jobs = Parallel.Pool.jobs () in
  let results =
    List.map
      (fun (name, circ, nodes, sweep, fill_bound) ->
        let probe = Stability.Probe.prepare circ in
        let size = probe.Stability.Probe.mna.Engine.Mna.size in
        let kernel, lu = compile_gated name probe ~sweep fill_bound in
        let health = Engine.Health.meter () in
        let run ~parallel () =
          Stability.Probe.response_many ~kernel ~parallel ~health probe
            ~sweep nodes
        in
        Printf.printf "%s: %d unknowns, %d points, %d nets\n%!" name size
          (Numerics.Sweep.count sweep) (List.length nodes);
        (* Jobs curve through the production path: requested jobs are
           clamped to the cores, exactly as a user's [-j] would be. *)
        let curve =
          List.map
            (fun j ->
              Parallel.Pool.set_jobs j;
              let t = best_of (run ~parallel:`Par) in
              Printf.printf "  jobs=%d (effective %d): %.4f s\n%!" j
                (Parallel.Pool.effective_jobs ()) t;
              (j, t))
            (if smoke then [ 1; max_jobs ] else [ 1; 2; max_jobs ])
        in
        let t1 = List.assoc 1 curve in
        let t4 = List.assoc max_jobs curve in
        let speedup4 = t1 /. t4 in
        (* Determinism, both ways the pool can run a sweep: clamped to
           the hardware (production), and with oversubscription forced
           so real worker domains and real stealing are exercised even
           on a small CI box. Bit-identical results in every mode. *)
        Parallel.Pool.set_jobs max_jobs;
        let seq_r = run ~parallel:`Seq () in
        let par_r = run ~parallel:`Par () in
        Parallel.Pool.set_oversubscribe true;
        let over_r = run ~parallel:`Par () in
        Parallel.Pool.set_oversubscribe false;
        Parallel.Pool.shutdown ();
        let identical = seq_r = par_r && seq_r = over_r in
        let target = scale_speedup_target ~cores in
        let gate_ok = speedup4 >= target && identical in
        record
          ~experiment:(Printf.sprintf "Scale (%s)" name)
          ~paper:
            (Printf.sprintf ">= %.1fx @ %d workers, seq = par" target
               max_jobs)
          ~measured:
            (Printf.sprintf "%.2fx on %d core(s), identical: %b" speedup4
               cores identical)
          gate_ok;
        (name, size, nodes, sweep, curve, speedup4, identical, lu))
      workloads
  in
  Parallel.Pool.set_jobs saved_jobs;
  if not smoke then begin
    let oc = open_out "BENCH_scale.json" in
    let counters =
      String.concat ", "
        (List.filter_map
           (fun (name, v) ->
             if (String.starts_with ~prefix:"pool." name
                 && not (String.ends_with ~suffix:"busy_ns" name))
                || name = "dcop.sparse_linear"
                || name = "probe.sweeps_par"
             then Some (Printf.sprintf "\"%s\": %d" name v)
             else None)
           (Obs.Counter.snapshot ()))
    in
    Printf.fprintf oc
      "{\n\
      \  \"cores\": %d,\n\
      \  \"speedup_target_at_4\": %.2f,\n\
      \  \"workloads\": [\n%s\n  ],\n\
      \  \"obs\": { %s }\n\
       }\n"
      cores
      (scale_speedup_target ~cores)
      (String.concat ",\n"
         (List.map
            (fun (name, size, nodes, sweep, curve, speedup4, identical,
                  (nnz_a, lu_nnz, lu_madds)) ->
              Printf.sprintf
                "    { \"workload\": \"%s\", \"unknowns\": %d, \
                 \"nets\": %d, \"points\": %d,\n\
                \      \"nnz_a\": %d, \"lu_nnz\": %d, \"lu_madds\": %d, \
                 \"fill\": %.2f,\n\
                \      \"jobs_curve\": [ %s ],\n\
                \      \"speedup_at_4\": %.2f, \"seq_par_identical\": %b }"
                name size (List.length nodes) (Numerics.Sweep.count sweep)
                nnz_a lu_nnz lu_madds
                (float_of_int lu_nnz /. float_of_int nnz_a)
                (String.concat ", "
                   (List.map
                      (fun (j, t) ->
                        Printf.sprintf "{ \"jobs\": %d, \"s\": %.6f }" j t)
                      curve))
                speedup4 identical)
            results))
      counters;
    close_out oc;
    Printf.printf "wrote BENCH_scale.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Observability smoke: the instrumentation contracts                   *)

let substr_index text needle =
  let n = String.length text and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub text i m = needle then Some i
    else go (i + 1)
  in
  go 0

(* Value of a "C" (counter) event in serialized Chrome trace JSON: find
   the event by name, then the integer after its "value": key. *)
let trace_counter_value text name =
  match substr_index text (Printf.sprintf "\"name\":\"%s\",\"ph\":\"C\"" name)
  with
  | None -> None
  | Some i ->
    let rest = String.sub text i (String.length text - i) in
    (match substr_index rest "\"value\":" with
     | None -> None
     | Some j ->
       let k = ref (j + 8) in
       let start = !k in
       while
         !k < String.length rest
         && (match rest.[!k] with '0' .. '9' | '-' -> true | _ -> false)
       do
         incr k
       done;
       int_of_string_opt (String.sub rest start (!k - start)))

let run_obs_smoke () =
  section "Observability -- zero-overhead-off + trace counter contract";
  (* Disabled spans must not allocate: the per-frequency solve path runs
     with tracing off in production, so enter/leave have to be free.
     (The slack covers the Gc.minor_words float boxes themselves.) *)
  assert (not (Obs.Span.enabled ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let t = Obs.Span.enter () in
    Obs.Span.leave "bench.noop" t
  done;
  let dw = Gc.minor_words () -. w0 in
  Printf.printf "disabled span enter/leave x10000: %.0f minor words\n" dw;
  record ~experiment:"Obs (off = zero alloc)" ~paper:"0 words when disabled"
    ~measured:(Printf.sprintf "%.0f words / 10k spans" dw)
    (dw < 256.);
  (* Same discipline for the structured event log: with no sink and no
     ring armed, emit must bail on one atomic load before touching its
     field list. *)
  assert (not (Obs.Events.enabled ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.Events.emit "bench.noop" []
  done;
  let dw_ev = Gc.minor_words () -. w0 in
  Printf.printf "disarmed event emit x10000: %.0f minor words\n" dw_ev;
  record ~experiment:"Obs (events off = zero alloc)"
    ~paper:"0 words when disarmed"
    ~measured:(Printf.sprintf "%.0f words / 10k events" dw_ev)
    (dw_ev < 256.);
  (* One traced all-nodes run: the trace file itself must carry the
     plan-reuse budget (exactly one symbolic analysis for the whole
     coarse + refine pipeline) and the pipeline spans. *)
  let circ = Workloads.Opamp_2mhz.buffer () in
  Obs.Span.clear ();
  Obs.Counter.reset ();
  Obs.Span.enable ();
  let opts =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e9 10;
      refine_per_decade = 120 }
  in
  let results = Stability.Analysis.all_nodes ~options:opts circ in
  Obs.Span.disable ();
  let path = "BENCH_trace_smoke.json" in
  Obs.Trace.write path;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let sym = trace_counter_value text "acplan.symbolic" in
  let spans_ok =
    List.for_all
      (fun name -> substr_index text (Printf.sprintf "\"name\":\"%s\"" name)
                   <> None)
      [ "probe.sweep"; "analysis.coarse"; "analysis.zoom"; "acplan.compile";
        "dc.op"; "mna.compile" ]
  in
  let shape_ok =
    String.length text > 2
    && String.sub text 0 16 = "{\"traceEvents\":["
    && results <> []
  in
  Printf.printf
    "traced all-nodes: %d bytes, acplan.symbolic=%s, pipeline spans: %b\n"
    (String.length text)
    (match sym with Some v -> string_of_int v | None -> "missing")
    spans_ok;
  record ~experiment:"Obs (trace counter budget)"
    ~paper:"1 symbolic per all-nodes run"
    ~measured:
      (Printf.sprintf "trace says %s"
         (match sym with Some v -> string_of_int v | None -> "missing"))
    (sym = Some 1 && spans_ok && shape_ok)

(* ------------------------------------------------------------------ *)
(* Health-sampling overhead: the telemetry must be (nearly) free        *)

(* The factorisation-health telemetry (Engine.Health) costs one atomic
   fetch-and-add per frequency point plus a condition estimate on every
   sampled point. The contract is <2% added wall time on the all-nodes
   smoke at the default sampling interval; measured as best-of-N against
   a run with the interval pushed beyond the point count (ticks still
   happen, estimates never do), with a small absolute floor so a
   sub-millisecond scheduler blip cannot fail CI. *)
let run_health_smoke () =
  section "Health telemetry -- sampling overhead on all-nodes";
  let circ = Workloads.Opamp_2mhz.buffer () in
  let probe = Stability.Probe.prepare circ in
  let opts =
    { Stability.Analysis.default_options with
      sweep = Numerics.Sweep.decade 1e3 1e9 20;
      refine_per_decade = 200 }
  in
  let best_of n f =
    let best = ref Float.infinity in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let run () = Stability.Analysis.all_nodes_prepared ~options:opts probe in
  ignore (run ());
  Engine.Health.set_sample_every 1_000_000_000;
  let t_off = best_of 5 run in
  Engine.Health.set_sample_every Engine.Health.default_sample_every;
  let t_on = best_of 5 run in
  let overhead = (t_on -. t_off) /. t_off in
  let budget = Float.max 0.02 (2e-3 /. t_off) in
  Printf.printf
    "all-nodes: %.1f ms unsampled, %.1f ms sampled (every %d), overhead \
     %+.2f%%\n"
    (1e3 *. t_off) (1e3 *. t_on) Engine.Health.default_sample_every
    (100. *. overhead);
  record ~experiment:"Health sampling overhead" ~paper:"<2% of all-nodes"
    ~measured:(Printf.sprintf "%+.2f%%" (100. *. overhead))
    (overhead < budget)

(* ------------------------------------------------------------------ *)
(* Summary                                                              *)

let print_summary () =
  section "Paper vs measured (see EXPERIMENTS.md)";
  Printf.printf "%-28s %-28s %-28s %s\n" "experiment" "paper" "measured" "ok";
  List.iter
    (fun (e, p, m, ok) ->
      Printf.printf "%-28s %-28s %-28s %s\n" e p m
        (if ok then "yes" else "NO"))
    (List.rev !summary);
  let bad = List.filter (fun (_, _, _, ok) -> not ok) !summary in
  Printf.printf "\n%d/%d experiment checks hold\n"
    (List.length !summary - List.length bad)
    (List.length !summary)

(* ------------------------------------------------------------------ *)
(* Bechamel timing benchmarks                                           *)

let timing_benchmarks () =
  section "Timing benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  (* Lighter-weight kernels representative of each experiment, so the
     timing run finishes quickly. *)
  let opamp = Workloads.Opamp_2mhz.buffer () in
  let opamp_probe = Stability.Probe.prepare opamp in
  let quick_opts =
    { Stability.Analysis.default_options with
      refine = false;
      sweep = Numerics.Sweep.decade 1e3 1e9 10 }
  in
  let bias = Workloads.Bias_zero_tc.cell () in
  let bias_probe = Stability.Probe.prepare bias in
  let dev, term = Workloads.Opamp_2mhz.feedback_break in
  let tests =
    [ Test.make ~name:"table1: closed forms"
        (Staged.stage (fun () -> Control.Second_order.table1 ()));
      Test.make ~name:"fig1: netlist build + compile"
        (Staged.stage (fun () ->
             Engine.Mna.compile (Workloads.Opamp_2mhz.buffer ())));
      Test.make ~name:"fig2: transient (1 us)"
        (Staged.stage (fun () ->
             Engine.Transient.run ~tstop:1e-6 ~tstep:4e-9 opamp));
      Test.make ~name:"fig3: middlebrook margins"
        (Staged.stage (fun () ->
             Engine.Loopgain.middlebrook
               ~sweep:(Numerics.Sweep.decade 1e4 1e8 10)
               opamp ~device:dev ~terminal:term));
      Test.make ~name:"fig4: single-node stability"
        (Staged.stage (fun () ->
             Stability.Analysis.single_node_prepared ~options:quick_opts
               opamp_probe Workloads.Opamp_2mhz.node_out));
      Test.make ~name:"table2: all-nodes scan"
        (Staged.stage (fun () ->
             Stability.Analysis.all_nodes_prepared ~options:quick_opts
               opamp_probe));
      Test.make ~name:"fig5: bias-cell all-nodes"
        (Staged.stage (fun () ->
             Stability.Analysis.all_nodes_prepared ~options:quick_opts
               bias_probe));
      Test.make ~name:"s1.2: rlc single-node"
        (Staged.stage (fun () ->
             Stability.Analysis.single_node ~options:quick_opts
               (sec12_circuit ()) "n"));
      Test.make ~name:"ext: exact poles (op-amp)"
        (Staged.stage (fun () -> Engine.Poles.of_circuit opamp));
      Test.make ~name:"ext: noise spectrum (op-amp)"
        (Staged.stage (fun () ->
             Engine.Noise.run ~sweep:(Numerics.Sweep.decade 1e4 1e8 5)
               ~output:"out" opamp)) ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Printf.printf "%-36s %16s\n" "kernel" "time/run";
  List.iter
    (fun test ->
      let raw = benchmark test in
      let results = analyze raw in
      Hashtbl.iter
        (fun name ols ->
          let ns =
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ est ] -> est
            | _ -> Float.nan
          in
          let time =
            if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Printf.printf "%-36s %16s\n" name time)
        results)
    tests

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  if arg = "--pool" then begin
    (* Full pool benchmark alone: regenerates BENCH_pool.json without
       re-running the whole paper reproduction. *)
    run_pool_bench ~smoke:false ();
    print_summary ()
  end
  else if arg = "--scale" then begin
    (* Synthetic large-circuit scaling: regenerates BENCH_scale.json in
       full mode; with a second --smoke argument, a reduced run whose
       speedup gate (4 workers never slower than 1, the hardware-scaled
       target on real multicore) fails the process — the @bench-smoke
       leg that keeps the jobs curve from inverting again. *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    run_scale_bench ~smoke ();
    print_summary ();
    if smoke && List.exists (fun (_, _, _, ok) -> not ok) !summary then
      exit 1
  end
  else if arg = "--kernel" then begin
    (* Compiled-kernel benchmark alone: regenerates BENCH_kernel.json in
       full mode and gates the speedup / bit-identity / counter
       contracts; with a second --smoke argument, a reduced run whose
       timing gate only asserts "never slower" — the @bench-smoke leg
       that keeps the kernel from regressing below the dense oracle. *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    run_kernel_bench ~smoke ();
    print_summary ();
    if List.exists (fun (_, _, _, ok) -> not ok) !summary then exit 1
  end
  else if arg = "--smoke" then begin
    (* Reduced run for the @bench-smoke alias: the pool's correctness
       contracts (determinism, plan-reuse counters, seed-stable
       Monte-Carlo) at low sweep density. Timing thresholds are skipped —
       only deterministic checks can gate a test alias. *)
    run_pool_bench ~smoke:true ();
    run_obs_smoke ();
    run_health_smoke ();
    print_summary ();
    if List.exists (fun (_, _, _, ok) -> not ok) !summary then exit 1
  end
  else begin
    ignore (run_table1 ());
    let circ = run_fig1 () in
    ignore (run_fig2 circ);
    ignore (run_fig3 circ);
    ignore (run_fig4 circ);
    ignore (run_table2 circ);
    ignore (run_fig5 ());
    ignore (run_sec12 ());
    run_ablations ();
    run_acplan_bench ();
    run_kernel_bench ~smoke:false ();
    run_pool_bench ~smoke:false ();
    run_obs_smoke ();
    run_health_smoke ();
    print_summary ();
    timing_benchmarks ()
  end
