(* acstab — command-line interface of the AC-stability analysis tool.

   The paper's tool is a push-button GUI in DFII; this CLI exposes the same
   run modes over SPICE-format netlists: single-node and all-nodes
   stability analysis, the traditional baselines (operating point, AC,
   transient, open-loop margins), the Table 1 reference, and a self-
   contained demo on the paper's op-amp. *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let log_term =
  Term.(const setup_logs $ Logs_cli.level ())

(* ---- Tool.Pipeline adapters ----

   Every analysis subcommand is a thin shell over [Tool.Pipeline]: the
   pipeline owns parse, lint gate, guard and manifest emission; the
   adapters below only translate its failure values back into the
   CLI's historical stderr text and exit codes (2 parse/usage, 3
   analysis, 4 lint gate). *)

type lint_opts = { no_lint : bool; strict : bool }

let lint_term =
  let no_lint =
    Arg.(value & flag
         & info [ "no-lint" ]
             ~doc:"Skip the pre-run lint gate (findings are not even \
                   printed).")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Treat lint warnings as blocking errors.")
  in
  Term.(const (fun no_lint strict -> { no_lint; strict })
        $ no_lint $ strict)

let policy_of { no_lint; strict } = { Tool.Pipeline.no_lint; strict }

let print_findings ?file out findings =
  List.iter
    (fun f -> Format.fprintf out "%a@." (Lint.Rule.pp_finding ?file) f)
    findings

(* Print a pipeline failure exactly as the pre-pipeline CLI did, then
   exit with its code. Lint blocks print the gate's findings; analysis
   failures print the lint findings that predicted them (no file
   prefix, matching the old report_singular). *)
let fail_run ~file (failure : Tool.Pipeline.failure) =
  (match failure with
   | Tool.Pipeline.Lint_blocked { findings } ->
     print_findings ~file Format.err_formatter findings;
     Printf.eprintf
       "lint: blocking findings above; fix the netlist or pass \
        --no-lint to force the run\n"
   | Tool.Pipeline.Analysis_failed { message; likely_cause } ->
     Printf.eprintf "%s\n" message;
     (match likely_cause with
      | [] -> ()
      | findings ->
        Printf.eprintf "likely cause:\n";
        print_findings Format.err_formatter findings)
   | Tool.Pipeline.Parse_failed { message }
   | Tool.Pipeline.Usage_failed { message } ->
     Printf.eprintf "%s\n" message);
  exit (Tool.Pipeline.exit_code failure)

(* Parse + lint-gate a deck. Non-blocking findings still print to
   stderr — the gate is also a reporter. *)
let load_deck lint file =
  match
    Tool.Pipeline.load ~cache:(Tool.Cache.global ()) ~policy:(policy_of lint)
      (Tool.Pipeline.Deck_file file)
  with
  | Ok loaded ->
    Option.iter (print_findings ~file Format.err_formatter)
      loaded.Tool.Pipeline.findings;
    loaded
  | Error failure -> fail_run ~file failure

(* Parse only (the lint and check subcommands run no gate). *)
let read_circuit path =
  match
    Tool.Pipeline.load
      ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
      (Tool.Pipeline.Deck_file path)
  with
  | Ok loaded -> loaded.Tool.Pipeline.circ
  | Error failure -> fail_run ~file:path failure

let guarded loaded f =
  match Tool.Pipeline.guard loaded f with
  | Ok v -> v
  | Error failure -> fail_run ~file:loaded.Tool.Pipeline.deck_name failure

(* The cached stability run; failures render like any guarded call. *)
let analyze ?options loaded what =
  match Tool.Pipeline.analyze ?options loaded what with
  | Ok outcome -> outcome
  | Error failure -> fail_run ~file:loaded.Tool.Pipeline.deck_name failure

(* ---- common arguments ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"NETLIST" ~doc:"SPICE-format netlist file.")

let node_arg =
  Arg.(required & opt (some string) None
       & info [ "n"; "node" ] ~docv:"NODE" ~doc:"Circuit net to analyse.")

let fmin_arg =
  Arg.(value & opt float 1e3
       & info [ "fmin" ] ~docv:"HZ" ~doc:"Sweep start frequency.")

let fmax_arg =
  Arg.(value & opt float 1e9
       & info [ "fmax" ] ~docv:"HZ" ~doc:"Sweep stop frequency.")

let ppd_arg =
  Arg.(value & opt int 30
       & info [ "ppd" ] ~docv:"N" ~doc:"Frequency points per decade.")

let sweep_of fmin fmax ppd = Numerics.Sweep.decade fmin fmax ppd

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the waveform to FILE as CSV.")

let write_csv path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let options_of fmin fmax ppd =
  { Stability.Analysis.default_options with
    sweep = sweep_of fmin fmax ppd }

(* ---- parallelism ---- *)

(* [--jobs N] sizes the persistent worker pool (also: ACSTAB_JOBS). The
   term's value is unit so it composes like [log_term]: evaluating it
   configures the pool before the command body runs. *)
let jobs_term =
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker-pool parallelism (domains, the main one \
                   included). Defaults to $(b,ACSTAB_JOBS) or the \
                   machine's recommended domain count.")
  in
  Term.(const (fun j -> Option.iter Parallel.Pool.set_jobs j) $ jobs)

(* ---- observability ---- *)

(* [--trace FILE] / [--metrics] switch span recording on for the whole
   command; export happens in [at_exit] so the timeline survives the
   error-path exits (3/4) as well as normal completion. Unit-valued so it
   composes like [log_term]. *)
let obs_term =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event JSON timeline of the run \
                   (pipeline spans plus solver/pool counters) to \
                   $(docv); view in chrome://tracing or Perfetto.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print a span/counter summary table plus cache \
                   occupancy (entries/capacity per family) to stderr \
                   when the command finishes.")
  in
  let log =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Append the structured event log to $(docv) (NDJSON, \
                   schema acstab-log/1): one line per analysis or \
                   served request plus warnings and lifecycle events. \
                   Also enabled by $(b,ACSTAB_LOG).")
  in
  let setup trace metrics log =
    let log_path =
      match log with
      | Some _ -> log
      | None ->
        (match Sys.getenv_opt "ACSTAB_LOG" with
         | Some "" | None -> None
         | some -> some)
    in
    (match log_path with
     | None -> ()
     | Some path ->
       (try Obs.Events.to_file path
        with Sys_error m ->
          Printf.eprintf "acstab: cannot open --log %s: %s\n%!" path m;
          exit 2));
    if trace <> None || metrics then begin
      Obs.Span.enable ();
      at_exit (fun () ->
          (* One snapshot feeds both consumers: with the old
             per-consumer [Span.drain] calls, interleaved span recording
             between the two exports could leave the trace and the
             metrics table disagreeing about the same run. *)
          let events = Obs.Span.events () in
          Option.iter
            (fun path -> Obs.Trace.write_events path events)
            trace;
          if metrics then begin
            Format.eprintf "%a" (Obs.Metrics.pp_events events) ();
            (* Occupancy is state, not a monotonic counter, so it is
               read off the cache itself rather than the registry. *)
            List.iter
              (fun (s : Tool.Cache.family_stats) ->
                Format.eprintf
                  "cache.%s: %d/%d entries, %d hit(s), %d miss(es), %d \
                   eviction(s)@."
                  s.family s.entries s.capacity s.hits s.misses
                  s.evictions)
              (Tool.Cache.stats (Tool.Cache.global ()));
            Format.eprintf "@?"
          end)
    end
  in
  Term.(const setup $ trace $ metrics $ log)

(* [--health-sample N] tunes how often the solver layer pays for a
   condition estimate (every Nth factorisation); unit-valued so it
   composes like [jobs_term]. *)
let health_term =
  let sample =
    Arg.(value & opt (some int) None
         & info [ "health-sample" ] ~docv:"N"
             ~doc:"Record factorisation health (rcond, pivot growth, \
                   residual) every $(docv)th frequency point (default \
                   16; 1 = every point).")
  in
  Term.(const (fun n -> Option.iter Engine.Health.set_sample_every n)
        $ sample)

(* ---- run manifests ---- *)

let manifest_arg =
  Arg.(value & opt (some string) None
       & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Write a run manifest (deck fingerprint, options, \
                 per-node results with health grades, counters, \
                 histogram summaries, timing) as JSON to $(docv); \
                 compare two with $(b,acstab diff).")

(* Solver backend selector, mirrored by the serve protocol's "backend"
   member: the compiled per-circuit kernel, or the dense oracle. *)
let backend_arg =
  Arg.(value
       & opt (enum [ ("auto", `Auto); ("dense", `Dense) ]) `Auto
       & info [ "backend" ] ~docv:"NAME"
           ~doc:"Linear-solver path: $(b,auto) (default; the compiled \
                 per-circuit solve kernel) or $(b,dense) (the dense LU \
                 oracle, for cross-checking).")

(* Tri-state parallel selector: the default Auto heuristic parallelises
   when the workload's volume warrants the pool; the flags force it. *)
let par_term =
  Arg.(value
       & vflag `Auto
           [ (`Par,
              info [ "parallel" ]
                ~doc:"Force pooled parallel execution.");
             (`Seq,
              info [ "sequential" ]
                ~doc:"Force sequential execution (results are identical \
                      either way).") ])

(* ---- single-node ---- *)

let html_arg =
  Arg.(value & opt (some string) None
       & info [ "html" ] ~docv:"FILE"
           ~doc:"Also write a self-contained HTML report with SVG plots.")

let single_node_cmd =
  let plot =
    Arg.(value & flag
         & info [ "plot" ] ~doc:"Print the full stability plot table.")
  in
  let run () () () () lint file node fmin fmax ppd plot html manifest
      parallel backend =
    let loaded = load_deck lint file in
    let options = { (options_of fmin fmax ppd) with
                    Stability.Analysis.parallel; backend } in
    let o = analyze ~options loaded (Tool.Pipeline.Single_node node) in
    let r = List.hd o.Tool.Pipeline.results in
    Stability.Report.single_node Format.std_formatter r;
    if plot then
      Stability.Stability_plot.pp Format.std_formatter
        r.Stability.Analysis.plot;
    Option.iter
      (fun path ->
        Tool.Html_report.write path
          (Tool.Html_report.single_node loaded.Tool.Pipeline.circ r))
      html;
    Option.iter
      (fun path -> Tool.Manifest.write path o.Tool.Pipeline.manifest)
      manifest
  in
  Cmd.v
    (Cmd.info "single-node"
       ~doc:"Stability peak and natural frequency of one net (paper \
             'Single Node' run mode).")
    Term.(const run $ log_term $ jobs_term $ obs_term $ health_term
          $ lint_term $ file_arg
          $ node_arg $ fmin_arg $ fmax_arg $ ppd_arg $ plot $ html_arg
          $ manifest_arg $ par_term $ backend_arg)

(* ---- all-nodes ---- *)

let all_nodes_cmd =
  let annotate =
    Arg.(value & flag
         & info [ "annotate" ]
             ~doc:"Also print the netlist annotated with per-net results.")
  in
  let nodes =
    Arg.(value & opt (some (list string)) None
         & info [ "nodes" ] ~docv:"N1,N2,..."
             ~doc:"Restrict the scan to these nets. The special value \
                   $(b,auto) probes the static signal-flow report's \
                   greedy cover instead: the fewest nets that still \
                   observe every enumerated feedback loop (see $(b,acstab \
                   loops)).")
  in
  let run () () () () lint file fmin fmax ppd nodes annotate html manifest
      parallel backend =
    let loaded = load_deck lint file in
    let options = { (options_of fmin fmax ppd) with
                    Stability.Analysis.parallel; backend } in
    let what =
      match nodes with
      | Some [ "auto" ] -> Tool.Pipeline.Auto_nodes
      | nodes -> Tool.Pipeline.All_nodes nodes
    in
    let o = analyze ~options loaded what in
    let results = o.Tool.Pipeline.results in
    let circ = loaded.Tool.Pipeline.circ in
    Stability.Report.all_nodes Format.std_formatter results;
    if annotate then
      Stability.Annotate.netlist Format.std_formatter circ results;
    Option.iter
      (fun path ->
        Tool.Html_report.write path (Tool.Html_report.all_nodes circ results))
      html;
    Option.iter
      (fun path -> Tool.Manifest.write path o.Tool.Pipeline.manifest)
      manifest
  in
  Cmd.v
    (Cmd.info "all-nodes"
       ~doc:"Stability peaks of every net, grouped by loop (paper 'All \
             Nodes' run mode, Table 2).")
    Term.(const run $ log_term $ jobs_term $ obs_term $ health_term
          $ lint_term $ file_arg
          $ fmin_arg $ fmax_arg $ ppd_arg $ nodes $ annotate $ html_arg
          $ manifest_arg $ par_term $ backend_arg)

(* ---- run (directive-driven) ---- *)

let run_cmd =
  let run () () () lint file manifest =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let s = Tool.Ocean.simulator "builtin" in
    Tool.Ocean.design s circ;
    (* Directive-driven runs are the "push-button" mode; failures here
       produce a diagnostic report with the lint findings embedded so the
       structural context travels with the error. *)
    let findings =
      List.map
        (fun f -> Format.asprintf "%a" (Lint.Rule.pp_finding ~file) f)
        (Tool.Pipeline.lint_findings loaded)
    in
    let w0 = Unix.gettimeofday () and c0 = Tool.Pipeline.cpu_seconds () in
    (* One manifest helper serves the crash report (results-free: the
       deck fingerprint, options and counter/histogram state still
       travel with the error) and the success path. *)
    let manifest_now results =
      Tool.Pipeline.manifest_of loaded ~options:[ ("mode", "run") ] ~results
        ~wall_s:(Unix.gettimeofday () -. w0)
        ~cpu_s:(Tool.Pipeline.cpu_seconds () -. c0)
    in
    let r =
      match
        Tool.Diagnostics.guard ~operation:("run " ^ file) ~findings
          ~manifest:(fun () -> Tool.Manifest.to_json (manifest_now []))
          (fun () -> Tool.Ocean.run s)
      with
      | Ok r -> r
      | Error report ->
        Format.eprintf "%a@." Tool.Diagnostics.pp_report report;
        exit 3
    in
    Option.iter
      (fun path -> Tool.Manifest.write path (manifest_now r.Tool.Ocean.stab))
      manifest;
    (match r.Tool.Ocean.op with
     | Some op -> Engine.Dcop.pp_report Format.std_formatter op
     | None -> ());
    (match r.Tool.Ocean.ac with
     | Some ac ->
       Printf.printf "AC analysis: %d frequency points (use `acstab ac`                       for tables)
"
         (Array.length ac.Engine.Ac.freqs)
     | None -> ());
    (match r.Tool.Ocean.tran with
     | Some tr ->
       Printf.printf "transient: %d time points to %gs
"
         (Array.length tr.Engine.Transient.times)
         tr.Engine.Transient.times.(Array.length tr.Engine.Transient.times - 1)
     | None -> ());
    if r.Tool.Ocean.stab <> [] then
      print_string (Tool.Ocean.stab_report r)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute the analyses named by the deck's dot-cards (.op,              .ac, .tran, .stab).")
    Term.(const run $ log_term $ obs_term $ health_term $ lint_term
          $ file_arg $ manifest_arg)

(* ---- probe ---- *)

let probe_cmd =
  let run () () lint file node fmin fmax ppd csv =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let probe = Stability.Probe.prepare circ in
    let w =
      Stability.Probe.response probe ~sweep:(sweep_of fmin fmax ppd) node
    in
    Option.iter
      (fun path -> write_csv path (Engine.Waveform.Freq.to_csv w))
      csv;
    let mag = Engine.Waveform.Freq.mag w in
    let ph = Engine.Waveform.Freq.phase_deg w in
    Printf.printf "%14s %14s %12s
" "freq [Hz]" "|Z| [Ohm]" "phase [deg]";
    Array.iteri
      (fun k f ->
        Printf.printf "%14s %14s %12.3f
" (Numerics.Engnum.format f)
          (Numerics.Engnum.format mag.(k))
          ph.(k))
      w.Engine.Waveform.Freq.freqs
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:"Driving-point impedance of a net (the raw quantity the              stability plot differentiates).")
    Term.(const run $ log_term $ obs_term $ lint_term $ file_arg $ node_arg
          $ fmin_arg $ fmax_arg $ ppd_arg $ csv_arg)

(* ---- op ---- *)

let op_cmd =
  let run () lint file =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let op = Engine.Dcop.solve (Engine.Mna.compile circ) in
    Engine.Dcop.pp_report Format.std_formatter op
  in
  Cmd.v (Cmd.info "op" ~doc:"DC operating point report.")
    Term.(const run $ log_term $ lint_term $ file_arg)

(* ---- ac ---- *)

let ac_cmd =
  let run () lint file node fmin fmax ppd csv =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let ac = Engine.Ac.run ~sweep:(sweep_of fmin fmax ppd) circ in
    let w = Engine.Ac.v ac node in
    let db = Engine.Waveform.Freq.db w in
    let ph = Engine.Waveform.Freq.phase_deg w in
    Printf.printf "%14s %12s %12s\n" "freq [Hz]" "mag [dB]" "phase [deg]";
    Array.iteri
      (fun k f ->
        Printf.printf "%14s %12.4f %12.3f\n" (Numerics.Engnum.format f)
          db.(k) ph.(k))
      w.Engine.Waveform.Freq.freqs;
    Option.iter
      (fun path -> write_csv path (Engine.Waveform.Freq.to_csv w))
      csv
  in
  Cmd.v (Cmd.info "ac" ~doc:"AC magnitude/phase of a net.")
    Term.(const run $ log_term $ lint_term $ file_arg $ node_arg $ fmin_arg
          $ fmax_arg $ ppd_arg $ csv_arg)

(* ---- tran ---- *)

let tran_cmd =
  let tstop =
    Arg.(required & opt (some float) None
         & info [ "tstop" ] ~docv:"S" ~doc:"Simulation end time.")
  in
  let tstep =
    Arg.(required & opt (some float) None
         & info [ "tstep" ] ~docv:"S" ~doc:"Nominal time step.")
  in
  let run () lint file node tstop tstep csv =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let tr = Engine.Transient.run ~tstop ~tstep circ in
    let w = Engine.Transient.v tr node in
    Option.iter
      (fun path ->
        write_csv path
          (Engine.Waveform.Real.to_csv ~header:("time_s", "volts") w))
      csv;
    Array.iteri
      (fun k t ->
        Printf.printf "%.9e %.9e\n" t w.Engine.Waveform.Real.y.(k))
      w.Engine.Waveform.Real.x;
    let m = Engine.Measure.step_metrics w in
    Printf.eprintf
      "# final=%g peak=%g overshoot=%.1f%% rise=%gs settle=%gs\n"
      m.Engine.Measure.final m.Engine.Measure.peak
      m.Engine.Measure.overshoot_pct m.Engine.Measure.rise_time
      m.Engine.Measure.settle_time
  in
  Cmd.v (Cmd.info "tran" ~doc:"Transient waveform of a net (time value \
                               pairs on stdout, metrics on stderr).")
    Term.(const run $ log_term $ lint_term $ file_arg $ node_arg $ tstop
          $ tstep $ csv_arg)

(* ---- loopgain ---- *)

let loopgain_cmd =
  let device =
    Arg.(required & opt (some string) None
         & info [ "device" ] ~docv:"NAME"
             ~doc:"Device whose terminal wire is broken.")
  in
  let terminal =
    Arg.(value & opt int 1
         & info [ "terminal" ] ~docv:"K"
             ~doc:"Terminal index (device_nodes order, default 1).")
  in
  let meth =
    Arg.(value & opt (enum [ ("lc", `Lc); ("middlebrook", `Mb) ]) `Mb
         & info [ "method" ] ~doc:"lc (classic LC break) or middlebrook.")
  in
  let run () lint file device terminal meth fmin fmax ppd =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let sweep = sweep_of fmin fmax ppd in
    let r =
      match meth with
      | `Lc -> Engine.Loopgain.lc_break ~sweep circ ~device ~terminal
      | `Mb -> Engine.Loopgain.middlebrook ~sweep circ ~device ~terminal
    in
    Format.printf "%a@." Engine.Measure.pp_margins (Engine.Loopgain.margins r)
  in
  Cmd.v
    (Cmd.info "loopgain"
       ~doc:"Open-loop gain/phase margins (the traditional baseline, \
             paper Fig 3).")
    Term.(const run $ log_term $ lint_term $ file_arg $ device $ terminal
          $ meth $ fmin_arg $ fmax_arg $ ppd_arg)

(* ---- poles ---- *)

let poles_cmd =
  let run () lint file =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let poles = Engine.Poles.of_circuit circ in
    Printf.printf "%d finite poles; system is %s
" (List.length poles)
      (if Engine.Poles.is_stable poles then "stable" else "UNSTABLE");
    List.iter (fun p -> Format.printf "  %a@." Engine.Poles.pp p) poles;
    (match Engine.Poles.complex_pairs poles with
     | [] -> print_endline "no complex pairs (no resonant loops)"
     | pairs ->
       print_endline "complex pairs (one per conjugate pair):";
       List.iter
         (fun p -> Format.printf "  %a@." Engine.Poles.pp p)
         pairs)
  in
  Cmd.v
    (Cmd.info "poles"
       ~doc:"Exact small-signal poles of the whole system (eigenvalues of              the MNA pencil) -- ground truth for the stability plot.")
    Term.(const run $ log_term $ lint_term $ file_arg)

(* ---- noise ---- *)

let noise_cmd =
  let at =
    Arg.(value & opt (some float) None
         & info [ "at" ] ~docv:"HZ"
             ~doc:"Print the contribution breakdown at this frequency                    (default: the PSD maximum).")
  in
  let run () lint file node fmin fmax ppd at =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let r =
      Engine.Noise.run ~sweep:(sweep_of fmin fmax ppd) ~output:node circ
    in
    Printf.printf "%14s %16s
" "freq [Hz]" "noise [V/rtHz]";
    Array.iteri
      (fun k f ->
        Printf.printf "%14s %16s
" (Numerics.Engnum.format f)
          (Numerics.Engnum.format (sqrt r.Engine.Noise.total.(k))))
      r.Engine.Noise.freqs;
    let at_hz =
      match at with
      | Some f -> f
      | None ->
        r.Engine.Noise.freqs.(Numerics.Vec.argmax r.Engine.Noise.total)
    in
    Format.printf "@.%a" (Engine.Noise.pp_summary ~at_hz) r
  in
  Cmd.v
    (Cmd.info "noise"
       ~doc:"Output noise spectrum of a net; an unstable loop's noise              peaks at its natural frequency (paper section 1.2).")
    Term.(const run $ log_term $ lint_term $ file_arg $ node_arg $ fmin_arg
          $ fmax_arg $ ppd_arg $ at)

(* ---- sensitivity ---- *)

let sensitivity_cmd =
  let run () lint file node fmin fmax ppd =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let options = options_of fmin fmax ppd in
    (try
       let entries = Stability.Sensitivity.of_loop ~options circ ~node in
       Stability.Sensitivity.pp Format.std_formatter entries
     with Failure m ->
       Printf.eprintf "%s
" m;
       exit 1)
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Rank the passive components by their influence on a loop's              damping (which part to change to fix the loop).")
    Term.(const run $ log_term $ lint_term $ file_arg $ node_arg $ fmin_arg
          $ fmax_arg $ ppd_arg)

(* ---- stab-track ---- *)

let stab_track_cmd =
  let device =
    Arg.(required & opt (some string) None
         & info [ "device" ] ~docv:"NAME"
             ~doc:"Passive component (R/C/L) to sweep.")
  in
  let from_v =
    Arg.(required & opt (some float) None
         & info [ "from" ] ~docv:"VAL" ~doc:"Start value.")
  in
  let to_v =
    Arg.(required & opt (some float) None
         & info [ "to" ] ~docv:"VAL" ~doc:"Stop value.")
  in
  let points =
    Arg.(value & opt int 9 & info [ "points" ] ~docv:"N" ~doc:"Steps.")
  in
  let zeta_target =
    Arg.(value & opt (some float) None
         & info [ "zeta" ] ~docv:"Z"
             ~doc:"Also report the value where damping crosses Z.")
  in
  let run () lint file node device from_v to_v points zeta_target fmin fmax
      ppd =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let options = options_of fmin fmax ppd in
    let values =
      (* Log spacing when the endpoints allow it (component values). *)
      if from_v > 0. && to_v > from_v then
        Numerics.Vec.logspace from_v to_v points
      else Numerics.Vec.linspace from_v to_v points
    in
    let traj =
      Stability.Tracking.component ~options circ ~device ~values ~node
    in
    Stability.Tracking.pp Format.std_formatter traj;
    Option.iter
      (fun z ->
        match Stability.Tracking.critical_value traj ~zeta_target:z with
        | Some v ->
          Format.printf "damping crosses %.2f at %s = %s@." z device
            (Numerics.Engnum.format v)
        | None -> Format.printf "damping never crosses %.2f in range@." z)
      zeta_target
  in
  Cmd.v
    (Cmd.info "stab-track"
       ~doc:"Track a loop's natural frequency and damping across a              component sweep (compensation sizing).")
    Term.(const run $ log_term $ lint_term $ file_arg $ node_arg $ device
          $ from_v $ to_v $ points $ zeta_target $ fmin_arg $ fmax_arg
          $ ppd_arg)

(* ---- dcsweep ---- *)

let dcsweep_cmd =
  let source =
    Arg.(required & opt (some string) None
         & info [ "source" ] ~docv:"NAME" ~doc:"V/I source to sweep.")
  in
  let from_v =
    Arg.(required & opt (some float) None
         & info [ "from" ] ~docv:"V" ~doc:"Start value.")
  in
  let to_v =
    Arg.(required & opt (some float) None
         & info [ "to" ] ~docv:"V" ~doc:"Stop value.")
  in
  let points =
    Arg.(value & opt int 51 & info [ "points" ] ~docv:"N" ~doc:"Steps.")
  in
  let run () lint file node source from_v to_v points csv =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let values = Numerics.Vec.linspace from_v to_v points in
    let r = Engine.Dcsweep.source circ ~name:source ~values in
    let w = Engine.Dcsweep.v r node in
    Option.iter
      (fun path ->
        write_csv path
          (Engine.Waveform.Real.to_csv ~header:("swept", "volts") w))
      csv;
    Printf.printf "%14s %14s\n" source ("V(" ^ node ^ ")");
    Array.iteri
      (fun k v ->
        Printf.printf "%14g %14.6g\n" v w.Engine.Waveform.Real.y.(k))
      w.Engine.Waveform.Real.x
  in
  Cmd.v
    (Cmd.info "dcsweep"
       ~doc:"Sweep a source's DC value and print a node's transfer curve.")
    Term.(const run $ log_term $ lint_term $ file_arg $ node_arg $ source
          $ from_v $ to_v $ points $ csv_arg)

(* ---- montecarlo ---- *)

let montecarlo_cmd =
  let n =
    Arg.(value & opt int 50
         & info [ "samples" ] ~docv:"N" ~doc:"Sample count.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Base seed.")
  in
  let sigma =
    Arg.(value & opt float 0.05
         & info [ "sigma" ] ~docv:"REL"
             ~doc:"Relative sigma on every R/C/L value.")
  in
  let run () () () lint file node n seed sigma parallel =
    let loaded = load_deck lint file in
    let circ = loaded.Tool.Pipeline.circ in
    guarded loaded @@ fun () ->
    let spec =
      { Tool.Montecarlo.default_spec with passive_sigma = sigma }
    in
    let mc =
      Tool.Montecarlo.run ~parallel ~spec ~n ~seed circ (fun c ->
          match
            (Stability.Analysis.single_node c node)
              .Stability.Analysis.dominant
          with
          | Some d -> Option.value ~default:1. d.Stability.Peaks.zeta
          | None -> 1.)
    in
    let st = Tool.Montecarlo.stats mc in
    Format.printf "loop damping (zeta) at %s under %.1f%%-sigma mismatch:@."
      node (100. *. sigma);
    Format.printf "  %a@." Tool.Montecarlo.pp_stats st;
    List.iter
      (fun target ->
        Format.printf "  yield (zeta >= %.2f): %.1f%%@." target
          (100. *. Tool.Montecarlo.yield mc ~ok:(fun z -> z >= target)))
      [ 0.2; 0.3; 0.5 ]
  in
  Cmd.v
    (Cmd.info "montecarlo"
       ~doc:"Mismatch Monte Carlo on a loop's damping ratio.")
    Term.(const run $ log_term $ jobs_term $ obs_term $ lint_term $ file_arg
          $ node_arg $ n $ seed $ sigma $ par_term)

(* ---- table1 ---- *)

let table1_cmd =
  let run () =
    Control.Second_order.pp_table1 Format.std_formatter
      (Control.Second_order.table1 ())
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Second-order system characteristics (paper Table 1).")
    Term.(const run $ log_term)

(* ---- lint ---- *)

let lint_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit non-zero on warnings too.")
  in
  let disable =
    Arg.(value & opt (list string) []
         & info [ "disable" ] ~docv:"ID1,ID2"
             ~doc:"Rule IDs to switch off for this run.")
  in
  let run () file json strict disable =
    List.iter
      (fun id ->
        if Lint.Rules.find id = None then begin
          Printf.eprintf "unknown rule ID %S (see the manual's rule \
                          catalogue)\n" id;
          exit 2
        end)
      disable;
    let circ = read_circuit file in
    let findings =
      Lint.Runner.run ~config:{ Lint.Runner.disabled = disable } circ
    in
    if json then print_endline (Lint.Json.report ~file findings)
    else begin
      print_findings ~file Format.std_formatter findings;
      let count sev =
        List.length
          (List.filter
             (fun (f : Lint.Rule.finding) -> f.severity = sev)
             findings)
      in
      Format.printf "%s: %d error(s), %d warning(s), %d info@." file
        (count Lint.Rule.Error) (count Lint.Rule.Warning)
        (count Lint.Rule.Info)
    end;
    let failing (f : Lint.Rule.finding) =
      f.severity = Lint.Rule.Error
      || (strict && f.severity = Lint.Rule.Warning)
    in
    if List.exists failing findings then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static analysis of a netlist: wiring mistakes, suspicious \
             values and structural singularities, with rule IDs and \
             source lines.")
    Term.(const run $ log_term $ file_arg $ json $ strict $ disable)

(* ---- loops ---- *)

let loops_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the report as one JSON object (schema \
                   acstab-loops/1) on stdout.")
  in
  let max_len =
    Arg.(value & opt int Staticanalysis.Report.default_bounds.max_len
         & info [ "max-len" ] ~docv:"N"
             ~doc:"Longest elementary cycle enumerated (nets per loop).")
  in
  let max_cycles =
    Arg.(value & opt int Staticanalysis.Report.default_bounds.max_cycles
         & info [ "max-cycles" ] ~docv:"N"
             ~doc:"Stop after this many cycles (the report is flagged \
                   truncated).")
  in
  let run () () file json max_len max_cycles =
    (* No lint gate: the loops report is itself a static diagnostic, so
       it must work on exactly the decks lint complains about. *)
    let loaded =
      match
        Tool.Pipeline.load
          ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
          (Tool.Pipeline.Deck_file file)
      with
      | Ok l -> l
      | Error failure -> fail_run ~file failure
    in
    let bounds = { Staticanalysis.Cycles.max_len; max_cycles } in
    let report, _ = Tool.Pipeline.static_report ~bounds loaded in
    if json then
      print_endline
        (Tool.Json.to_string
           (Tool.Loops_report.json ~deck:file
              ~sha256:loaded.Tool.Pipeline.sha256 report))
    else print_string (Tool.Loops_report.render ~deck:file report)
  in
  Cmd.v
    (Cmd.info "loops"
       ~doc:"Static signal-flow analysis of a netlist without solving \
             anything: enumerate the feedback loops (global vs. local, \
             ranked by structural gain order), compute the probe cover \
             that $(b,--nodes auto) analyzes, and flag undrivable nets \
             and open-loop gain devices.")
    Term.(const run $ log_term $ obs_term $ file_arg $ json $ max_len
          $ max_cycles)

(* ---- check ---- *)

let check_cmd =
  let run () file =
    let circ = read_circuit file in
    match Circuit.Topology.check circ with
    | [] -> print_endline "no structural issues found"
    | issues ->
      List.iter
        (fun i -> Format.printf "%a@." Circuit.Topology.pp_issue i)
        issues;
      exit 1
  in
  Cmd.v (Cmd.info "check" ~doc:"Structural sanity checks on a netlist.")
    Term.(const run $ log_term $ file_arg)

(* ---- diff ---- *)

let diff_cmd =
  let manifest_pos k doc =
    Arg.(required & pos k (some file) None & info [] ~docv:"MANIFEST" ~doc)
  in
  let rtol_fn =
    Arg.(value & opt float Tool.Manifest.default_diff_options.rtol_fn
         & info [ "rtol-fn" ] ~docv:"REL"
             ~doc:"Relative tolerance on natural frequencies.")
  in
  let rtol_zeta =
    Arg.(value & opt float Tool.Manifest.default_diff_options.rtol_zeta
         & info [ "rtol-zeta" ] ~docv:"REL"
             ~doc:"Relative tolerance on damping ratios.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the comparison as one machine-readable JSON \
                   object (schema acstab-diff/1) on stdout instead of \
                   the human-readable change list. The exit-code \
                   contract is unchanged: 0 agree, 5 regressions.")
  in
  let run () a_path b_path rtol_fn rtol_zeta json =
    let load path =
      match Tool.Manifest.load path with
      | Ok m -> m
      | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        exit 2
    in
    let a = load a_path and b = load b_path in
    if a.Tool.Manifest.deck_sha256 <> b.Tool.Manifest.deck_sha256 then
      Printf.eprintf
        "note: manifests fingerprint different decks (%s vs %s)\n"
        a.Tool.Manifest.deck_file b.Tool.Manifest.deck_file;
    let changes = Tool.Manifest.diff ~options:{ rtol_fn; rtol_zeta } a b in
    if json then begin
      print_endline
        (Tool.Json.to_string (Tool.Manifest.diff_json ~a ~b changes));
      if changes <> [] then exit 5
    end
    else
      match changes with
      | [] ->
        Printf.printf "manifests agree: %d node(s) within tolerance\n"
          (List.length a.Tool.Manifest.nodes)
      | changes ->
        List.iter
          (fun c -> Format.printf "%a@." Tool.Manifest.pp_change c)
          changes;
        Printf.printf "%d regression(s)\n" (List.length changes);
        (* Exit 5: regression found — distinct from parse/usage errors
           (2), analysis failures (3) and the lint gate (4), so CI can
           tell "the run changed" from "the run broke". *)
        exit 5
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two run manifests: added/removed/shifted peaks and \
             quality downgrades. Exit 0 when B agrees with reference A \
             within tolerance, 5 on regressions.")
    Term.(const run $ log_term
          $ manifest_pos 0 "Reference manifest (A)."
          $ manifest_pos 1 "Candidate manifest (B)."
          $ rtol_fn $ rtol_zeta $ json)

(* ---- serve ---- *)

let serve_cmd =
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to listen on. A stale socket file \
                   left by a dead daemon is unlinked and replaced; if a \
                   live daemon already answers on it, this command \
                   refuses to start instead of stealing the path.")
  in
  let capacity =
    Arg.(value & opt int Tool.Cache.default_capacity
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"Entries kept per cache family (operating points, \
                   solve kernels, result sets, signal-flow reports) \
                   before LRU eviction.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Log any request taking at least $(docv) milliseconds \
                   as a server.slow_request event carrying the \
                   request's span tree (keeps span recording on for \
                   the life of the daemon).")
  in
  let tick =
    Arg.(value & opt float 1.0
         & info [ "tick" ] ~docv:"S"
             ~doc:"Background gauge-sampling interval in seconds \
                   (cache occupancy, pool busy/queue depth, in-flight \
                   requests) feeding the $(b,metrics) protocol \
                   command.")
  in
  let run () () () () socket capacity slow_ms tick =
    match Tool.Server.serve ~capacity ?slow_ms ~tick_s:tick ~socket () with
    | () -> ()
    | exception Failure m ->
      Printf.eprintf "%s\n" m;
      exit 2
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "%s: %s (%s)\n" fn (Unix.error_message e) arg;
      exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident analysis daemon: newline-delimited JSON \
             requests over a Unix socket, analyzed through the shared \
             pipeline and answered from a fingerprint-keyed cache (a \
             warm request re-solves nothing). $(b,--log) appends one \
             structured event per request; the $(b,metrics) and \
             $(b,trace) protocol commands expose live Prometheus text \
             and on-demand Chrome traces; $(b,acstab top) renders \
             them. See the manual's serve section for the protocol.")
    Term.(const run $ log_term $ jobs_term $ obs_term $ health_term
          $ socket $ capacity $ slow_ms $ tick)

(* ---- top ---- *)

let top_cmd =
  let socket =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SOCKET"
             ~doc:"Unix-domain socket of a running serve daemon.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Print a single sample and exit.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit samples as JSON (schema acstab-top/1) instead \
                   of the text dashboard — one document per refresh, \
                   one line each.")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"S"
             ~doc:"Seconds between refreshes (looping mode).")
  in
  let run () socket once json interval =
    let client =
      match Tool.Server.Client.connect socket with
      | c -> c
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "acstab top: cannot connect to %s: %s\n" socket
          (Unix.error_message e);
        exit 2
    in
    let take () =
      match Tool.Top.sample client with
      | Ok s -> s
      | Error m ->
        Printf.eprintf "acstab top: %s\n" m;
        exit 3
      | exception Failure m ->
        (* The daemon shut down under us: report, don't backtrace. *)
        Printf.eprintf "acstab top: %s\n" m;
        exit 3
    in
    let emit ?prev s =
      if json then
        print_endline (Tool.Json.to_string (Tool.Top.to_json ?prev s))
      else begin
        if not once then print_string "\027[2J\027[H";
        print_string (Tool.Top.render ?prev ~socket s)
      end;
      flush stdout
    in
    if once then emit (take ())
    else begin
      let interval = Float.max 0.1 interval in
      let prev = ref None in
      while true do
        let s = take () in
        emit ?prev:!prev s;
        prev := Some s;
        Unix.sleepf interval
      done
    end;
    Tool.Server.Client.close client
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live dashboard over a running serve daemon: request rate, \
             latency percentiles (p50/p90/p99), per-family cache hit \
             ratios and pool utilization, sampled over the daemon's \
             own $(b,stats)/$(b,metrics) protocol commands — no \
             restart, no daemon-side cost beyond two requests per \
             refresh. $(b,--once --json) prints one machine-readable \
             sample for scripting.")
    Term.(const run $ log_term $ socket $ once $ json $ interval)

(* ---- export-builtin ---- *)

let export_cmd =
  let dir =
    Arg.(value & opt string "."
         & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run () dir =
    let dump name circ =
      let path = Filename.concat dir (name ^ ".sp") in
      let oc = open_out path in
      output_string oc (Circuit.Netlist.to_spice circ);
      close_out oc;
      Printf.printf "wrote %s\n" path
    in
    dump "opamp_2mhz_buffer" (Workloads.Opamp_2mhz.buffer ());
    dump "bias_zero_tc" (Workloads.Bias_zero_tc.cell ());
    dump "nmc_amp_buffer" (Workloads.Nmc_amp.buffer ());
    dump "rc_ladder_20" (Workloads.Ladder.rc ())
  in
  Cmd.v
    (Cmd.info "export-builtin"
       ~doc:"Write the built-in workload circuits (the paper's op-amp and              bias cell, the NMC amplifier) as SPICE decks.")
    Term.(const run $ log_term $ dir)

(* ---- synth ---- *)

let synth_cmd =
  let kind =
    Arg.(value
         & opt (enum [ ("mesh", `Mesh); ("tree", `Tree); ("amp", `Amp);
                       ("ladder", `Ladder) ])
             `Mesh
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Generator family: $(b,mesh) (rows x cols RC grid), \
                   $(b,tree) (fanout-ary RC tree), $(b,amp) (chained \
                   two-pole feedback amplifiers), $(b,ladder) (the RC \
                   ladder chain).")
  in
  let rows =
    Arg.(value & opt int 32
         & info [ "rows" ] ~docv:"N" ~doc:"Mesh rows (mesh kind).")
  in
  let cols =
    Arg.(value & opt int 32
         & info [ "cols" ] ~docv:"N" ~doc:"Mesh columns (mesh kind).")
  in
  let depth =
    Arg.(value & opt int 9
         & info [ "depth" ] ~docv:"N" ~doc:"Tree depth (tree kind).")
  in
  let fanout =
    Arg.(value & opt int 2
         & info [ "fanout" ] ~docv:"N" ~doc:"Tree fanout (tree kind).")
  in
  let stages =
    Arg.(value & opt int 150
         & info [ "stages" ] ~docv:"N"
             ~doc:"Amplifier stages (amp kind).")
  in
  let sections =
    Arg.(value & opt int 1000
         & info [ "sections" ] ~docv:"N"
             ~doc:"Ladder sections (ladder kind).")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the deck here instead of stdout.")
  in
  let run () kind rows cols depth fanout stages sections output =
    let circ, unknowns =
      match kind with
      | `Mesh ->
        (Workloads.Synth.rc_mesh ~rows ~cols (),
         Workloads.Synth.mesh_unknowns ~rows ~cols)
      | `Tree ->
        (Workloads.Synth.rc_tree ~depth ~fanout (),
         Workloads.Synth.tree_unknowns ~depth ~fanout)
      | `Amp ->
        (Workloads.Synth.amp_array ~stages (),
         Workloads.Synth.amp_array_unknowns ~stages)
      | `Ladder -> (Workloads.Ladder.rc ~sections (), (2 * sections) + 1)
    in
    let text = Circuit.Netlist.to_spice circ in
    match output with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s (%d unknowns)\n" path unknowns
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Generate a parameterised synthetic benchmark deck (RC mesh, \
             RC tree, chained feedback amplifiers, RC ladder) sized from \
             hundreds to tens of thousands of unknowns — the workloads \
             behind the $(b,--scale) bench and BENCH_scale.json.")
    Term.(const run $ log_term $ kind $ rows $ cols $ depth $ fanout
          $ stages $ sections $ output)

(* ---- demo ---- *)

let demo_cmd =
  let run () =
    let circ = Workloads.Opamp_2mhz.buffer () in
    let loaded =
      match
        Tool.Pipeline.load
          ~policy:{ Tool.Pipeline.no_lint = true; strict = false }
          (Tool.Pipeline.Deck_circuit { name = "opamp_2mhz_buffer"; circ })
      with
      | Ok l -> l
      | Error failure -> fail_run ~file:"opamp_2mhz_buffer" failure
    in
    guarded loaded @@ fun () ->
    print_endline "# The paper's 2 MHz op-amp buffer (Fig 1), all-nodes run:";
    let o = analyze loaded (Tool.Pipeline.All_nodes None) in
    Stability.Report.all_nodes Format.std_formatter o.Tool.Pipeline.results;
    let dev, term = Workloads.Opamp_2mhz.feedback_break in
    let sweep = Numerics.Sweep.decade 1e3 1e9 40 in
    let lg = Engine.Loopgain.middlebrook ~sweep circ ~device:dev
               ~terminal:term in
    Format.printf "@.# Traditional baseline (Fig 3): %a@."
      Engine.Measure.pp_margins (Engine.Loopgain.margins lg)
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"End-to-end demo on the paper's built-in op-amp circuit.")
    Term.(const run $ log_term)

let main =
  Cmd.group
    (Cmd.info "acstab" ~version:"1.0.0"
       ~doc:"AC-stability analysis of continuous-time closed-loop circuits \
             without breaking the loop (Milev & Burt, DATE 2005).")
    [ single_node_cmd; all_nodes_cmd; run_cmd; probe_cmd; op_cmd; ac_cmd;
      tran_cmd;
      loopgain_cmd; poles_cmd; noise_cmd; sensitivity_cmd; stab_track_cmd;
      dcsweep_cmd;
      montecarlo_cmd; table1_cmd; lint_cmd; loops_cmd; check_cmd; diff_cmd;
      serve_cmd; top_cmd; export_cmd; synth_cmd; demo_cmd ]

let () = exit (Cmd.eval main)
