(* The canonical analysis run, as a value.

   Every front end — each CLI subcommand, the serve daemon, OCEAN
   scripts — used to re-derive the same imperative sequence: read the
   deck, gate it on lint, find the operating point, compile the solve
   kernel, sweep, report, write the manifest. This module owns that
   sequence once, as [load] (deck -> gated circuit) and [analyze]
   (gated circuit -> results + manifest), with failures as data
   ([failure] carries the exit-code contract) instead of [exit] calls
   buried in command bodies.

   [analyze] is memoized through {!Cache} at three grains keyed by the
   deck's SHA-256 fingerprint plus the options in force: the prepared
   probe (DC operating point), the compiled kernel (symbolic analysis
   plus its factor/solve program) and the complete result set with its
   manifest. A warm repeat of the same request performs zero DC solves
   and zero symbolic analyses; a request that only changes the sweep or
   the probed nodes still reuses the operating point and the kernel.
   The static signal-flow report is built once per deck and shared by
   the lint gate, the manifest and [--nodes auto]. *)

type deck =
  | Deck_file of string
  | Deck_text of { name : string; text : string }
  | Deck_circuit of { name : string; circ : Circuit.Netlist.t }

type lint_policy = { no_lint : bool; strict : bool }

let default_lint_policy = { no_lint = false; strict = false }

type loaded = {
  deck_name : string;
  deck_text : string;
  sha256 : string;
  circ : Circuit.Netlist.t;
  findings : Lint.Rule.finding list option;
}

type failure =
  | Parse_failed of { message : string }
  | Usage_failed of { message : string }
  | Lint_blocked of { findings : Lint.Rule.finding list }
  | Analysis_failed of {
      message : string;
      likely_cause : Lint.Rule.finding list;
    }

(* The CLI's exit-code contract: 2 bad input, 3 analysis failure,
   4 lint gate. (1 is cmdliner usage, 5 is `acstab diff` regressions.) *)
let exit_code = function
  | Parse_failed _ | Usage_failed _ -> 2
  | Analysis_failed _ -> 3
  | Lint_blocked _ -> 4

let failure_message = function
  | Parse_failed { message }
  | Usage_failed { message }
  | Analysis_failed { message; _ } -> message
  | Lint_blocked _ ->
    "lint: blocking findings; fix the netlist or pass --no-lint to force \
     the run"

(* ---- static signal-flow report (cached per deck + bounds) ---- *)

let bounds_fingerprint (b : Staticanalysis.Cycles.bounds) =
  Printf.sprintf "len=%d,cycles=%d" b.max_len b.max_cycles

let report_of ?cache ?(bounds = Staticanalysis.Report.default_bounds) ~sha256
    circ =
  let build () = Staticanalysis.Report.analyze ~bounds circ in
  match cache with
  | None -> (build (), false)
  | Some c ->
    Cache.sfg c ~key:(sha256 ^ "|sfg|" ^ bounds_fingerprint bounds) build

let static_report ?cache ?bounds loaded =
  let cache = match cache with Some c -> c | None -> Cache.global () in
  report_of ~cache ?bounds ~sha256:loaded.sha256 loaded.circ

(* ---- load: parse + lint gate ---- *)

let blocking policy (f : Lint.Rule.finding) =
  match f.severity with
  | Lint.Rule.Error -> true
  | Lint.Rule.Warning -> policy.strict
  | Lint.Rule.Info -> false

let load ?cache ?(policy = default_lint_policy) deck =
  match
    (match deck with
     | Deck_file path ->
       let circ =
         Obs.Span.with_ "parse" (fun () -> Circuit.Parser.parse_file path)
       in
       let text = In_channel.with_open_bin path In_channel.input_all in
       (path, text, circ)
     | Deck_text { name; text } ->
       let circ =
         Obs.Span.with_ "parse" (fun () ->
             Circuit.Parser.parse_string ~name text)
       in
       (name, text, circ)
     | Deck_circuit { name; circ } ->
       (* Fingerprint the in-memory design through its canonical SPICE
          rendering (temperature included), so an OCEAN session's
          repeated runs hit the same cache rows as the CLI on the
          exported deck. *)
       (name, Circuit.Netlist.to_spice circ, circ))
  with
  | exception Circuit.Parser.Parse_error { line; message } ->
    let file =
      match deck with
      | Deck_file p -> p
      | Deck_text { name; _ } | Deck_circuit { name; _ } -> name
    in
    Error
      (Parse_failed
         { message = Printf.sprintf "%s:%d: %s" file line message })
  | exception Sys_error m -> Error (Parse_failed { message = m })
  | deck_name, deck_text, circ ->
    let sha256 = Sha256.digest deck_text in
    let findings =
      if policy.no_lint then None
      else begin
        (* The graph rules read the deck's one static report: the cached
           one the manifest and [--nodes auto] reuse later. *)
        let report = lazy (fst (report_of ?cache ~sha256 circ)) in
        Some (Obs.Span.with_ "lint" (fun () -> Lint.Runner.run ~report circ))
      end
    in
    match findings with
    | Some findings when List.exists (blocking policy) findings ->
      Error (Lint_blocked { findings })
    | _ -> Ok { deck_name; deck_text; sha256; circ; findings }

(* ---- guard: engine exceptions -> failure values ---- *)

(* Translate a Singular exception into the lint findings that predicted
   it, so the user sees net/branch names instead of a matrix index. *)
let singular_failure ~what circ index =
  let message =
    match Engine.Mna.compile circ with
    | mna ->
      Printf.sprintf "%s: singular matrix at %s" what
        (Engine.Mna.unknown_name mna index)
    | exception _ -> Printf.sprintf "%s: singular matrix (pivot %d)" what index
  in
  Analysis_failed
    { message; likely_cause = Lint.Runner.explain_singular ~index circ }

let guard loaded f =
  match f () with
  | v -> Ok v
  | exception Engine.Dcop.No_convergence m ->
    Error
      (Analysis_failed
         { message = Printf.sprintf "DC convergence failure: %s" m;
           likely_cause = Lint.Runner.explain_singular loaded.circ })
  | exception Numerics.Dense.Singular k ->
    Error (singular_failure ~what:"dense factorization failed" loaded.circ k)
  | exception Numerics.Sparse.Singular k ->
    Error (singular_failure ~what:"sparse factorization failed" loaded.circ k)
  | exception Engine.Mna.Compile_error m ->
    Error (Usage_failed { message = Printf.sprintf "elaboration error: %s" m })
  | exception Invalid_argument m ->
    (* Unknown or ground nets (Ac.v, Probe.response_many) are user input
       errors, not internal failures. *)
    Error (Usage_failed { message = Printf.sprintf "error: %s" m })

(* ---- manifest emission (the one helper every mode shares) ---- *)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let lint_findings ?cache loaded =
  match loaded.findings with
  | Some findings -> findings
  | None ->
    Lint.Runner.run
      ~report:(lazy (fst (static_report ?cache loaded)))
      loaded.circ

let manifest_of ?cache loaded ~options ~results ~wall_s ~cpu_s =
  (* The lint findings go in as the lint library's JSON report,
     independent of the gate policy: a --no-lint run still records what
     the linter would have said. Likewise the structural loops section:
     it records what the deck's signal-flow graph says regardless of the
     analysis mode, so `acstab diff` can gate on vanished loops. *)
  let lint_json =
    Lint.Json.report ~file:loaded.deck_name (lint_findings ?cache loaded)
  in
  let loops = Loops_report.section (fst (static_report ?cache loaded)) in
  Manifest.build ~deck_file:loaded.deck_name ~deck_text:loaded.deck_text
    ~circ:loaded.circ ~options ~lint_json ~loops ~results ~wall_s ~cpu_s ()

(* ---- analyze: the cached stability run ---- *)

type analysis =
  | Single_node of Circuit.Netlist.node
  | All_nodes of Circuit.Netlist.node list option
  | Auto_nodes

type outcome = {
  loaded : loaded;
  analysis : analysis;
  options : Stability.Analysis.options;
  results : Stability.Analysis.node_result list;
  manifest : Manifest.t;
  wall_s : float;
  cpu_s : float;
  cache : [ `Hit | `Miss ];
}

let sweep_fingerprint = function
  | Numerics.Sweep.Dec { start; stop; per_decade } ->
    Printf.sprintf "dec:%.17g:%.17g:%d" start stop per_decade
  | Numerics.Sweep.Lin { start; stop; points } ->
    Printf.sprintf "lin:%.17g:%.17g:%d" start stop points
  | Numerics.Sweep.List pts ->
    "list:"
    ^ String.concat ","
        (Array.to_list (Array.map (Printf.sprintf "%.17g") pts))

let dc_fingerprint (o : Engine.Dcop.options) =
  Printf.sprintf "gmin=%.17g,reltol=%.17g,vntol=%.17g,abstol=%.17g,itl=%d,step=%.17g"
    o.gmin o.reltol o.vntol o.abstol o.max_iter o.max_step

let backend_tag = function `Auto -> "auto" | `Dense -> "dense"

(* Everything that can change the numbers goes into the key; [parallel]
   does not (scheduling is bit-identical by contract, and the
   seq-vs-par manifest diff in @bench-smoke keeps it honest). *)
let options_fingerprint (o : Stability.Analysis.options) =
  Printf.sprintf "sweep=%s;refine=%b,%.17g,%d;min_peak=%.17g;dc=%s;be=%s;hs=%d"
    (sweep_fingerprint o.sweep) o.refine o.refine_ratio o.refine_per_decade
    o.min_peak (dc_fingerprint o.dc_options) (backend_tag o.backend)
    (Engine.Health.sample_every ())

let analysis_fingerprint = function
  | Single_node n -> "single:" ^ n
  | All_nodes None -> "all"
  | All_nodes (Some ns) -> "all:" ^ String.concat "," ns
  | Auto_nodes -> "auto"

(* Manifest option lines, spelled exactly as the pre-pipeline CLI
   spelled them so manifests stay diff-compatible across the refactor. *)
let manifest_options analysis (o : Stability.Analysis.options) =
  let sweep_opts =
    (match o.sweep with
     | Numerics.Sweep.Dec { start; stop; per_decade } ->
       [ ("fmin", Printf.sprintf "%g" start);
         ("fmax", Printf.sprintf "%g" stop);
         ("ppd", string_of_int per_decade) ]
     | sw -> [ ("sweep", sweep_fingerprint sw) ])
    @ [ ("health_sample", string_of_int (Engine.Health.sample_every ()));
        (* Scheduling cannot change the numbers (it is excluded from the
           cache fingerprint for that reason), but a manifest should
           still explain its own wall-clock: record what was asked for
           and what the pool would actually use. The pool counter
           snapshot (pool.steals, pool.queue_high_water, per-worker
           busy times, probe.sweeps_par) rides along in the manifest's
           counters section automatically. *)
        ("jobs", string_of_int (Parallel.Pool.jobs ()));
        ("jobs_effective", string_of_int (Parallel.Pool.effective_jobs ()));
        ("parallel",
         match o.parallel with
         | `Auto -> "auto"
         | `Seq -> "seq"
         | `Par -> "par") ]
  in
  match analysis with
  | Single_node n -> ("mode", "single-node") :: ("node", n) :: sweep_opts
  | All_nodes _ -> ("mode", "all-nodes") :: sweep_opts
  | Auto_nodes -> ("mode", "all-nodes") :: ("nodes", "auto") :: sweep_opts

let analyze_uncached ?cache ~options loaded analysis =
  let cache = match cache with Some c -> c | None -> Cache.global () in
  let op_key =
    loaded.sha256 ^ "|op|" ^ dc_fingerprint options.Stability.Analysis.dc_options
  in
  let w0 = Unix.gettimeofday () and c0 = cpu_seconds () in
  let probe, _ =
    Cache.op cache ~key:op_key (fun () ->
        Stability.Probe.prepare
          ~dc_options:options.Stability.Analysis.dc_options loaded.circ)
  in
  (* The kernel carries its plan, so one family serves both
     compilations: a warm repeat on the same deck + DC options compiles
     nothing (the serve smoke test asserts it from [kernel.compiles] and
     [acplan.symbolic]). The dense oracle leaves the family untouched. *)
  let kernel =
    match options.Stability.Analysis.backend with
    | `Dense -> None
    | `Auto ->
      Some
        (fst
           (Cache.kernel cache ~key:(op_key ^ "|kernel") (fun () ->
                Engine.Kernel.compile
                  (Stability.Probe.plan probe
                     ~sweep:options.Stability.Analysis.sweep))))
  in
  let results =
    match analysis with
    | Single_node node ->
      [ Stability.Analysis.single_node_prepared ~options ?kernel probe node ]
    | All_nodes nodes ->
      Stability.Analysis.all_nodes_prepared ~options ?nodes ?kernel probe
    | Auto_nodes ->
      (* Probe only the static report's cover set — every enumerated
         loop stays observed. A loop-free (or all-pinned) deck has an
         empty cover; probing nothing would be useless, so fall back to
         every net. *)
      let report, _ = static_report ~cache loaded in
      let nodes =
        match report.Staticanalysis.Report.cover with
        | [] -> None
        | cover -> Some cover
      in
      Stability.Analysis.all_nodes_prepared ~options ?nodes ?kernel probe
  in
  let wall_s = Unix.gettimeofday () -. w0
  and cpu_s = cpu_seconds () -. c0 in
  let manifest =
    manifest_of ~cache loaded ~options:(manifest_options analysis options)
      ~results ~wall_s ~cpu_s
  in
  { Cache.results; manifest }

let analyze_exn ?cache ?(options = Stability.Analysis.default_options) loaded
    analysis =
  let c = match cache with Some c -> c | None -> Cache.global () in
  let result_key =
    loaded.sha256 ^ "|" ^ analysis_fingerprint analysis ^ "|"
    ^ options_fingerprint options
  in
  let entry, hit =
    Cache.result c ~key:result_key (fun () ->
        Obs.Span.with_ "pipeline.analyze" (fun () ->
            analyze_uncached ~cache:c ~options loaded analysis))
  in
  (* One structured event per analysis (CLI one-shots with --log get a
     record too, not just the daemon); guarded so runs without a sink
     pay one atomic load, not a field-list allocation. *)
  if Obs.Events.enabled () then
    Obs.Events.emit "pipeline.analyze"
      [ ("deck", Obs.Events.Str loaded.deck_name);
        ("sha256", Obs.Events.Str loaded.sha256);
        ("cache", Obs.Events.Str (if hit then "hit" else "miss"));
        ("wall_ms",
         Obs.Events.Float (entry.Cache.manifest.Manifest.wall_s *. 1e3)) ];
  { loaded; analysis; options; results = entry.Cache.results;
    manifest = entry.Cache.manifest;
    wall_s = entry.Cache.manifest.Manifest.wall_s;
    cpu_s = entry.Cache.manifest.Manifest.cpu_s;
    cache = (if hit then `Hit else `Miss) }

let analyze ?cache ?options loaded analysis =
  guard loaded (fun () -> analyze_exn ?cache ?options loaded analysis)

(* ---- one-step convenience for front ends ---- *)

type request = {
  deck : deck;
  analysis : analysis;
  options : Stability.Analysis.options;
  policy : lint_policy;
}

let request ?(options = Stability.Analysis.default_options)
    ?(policy = default_lint_policy) deck analysis =
  { deck; analysis; options; policy }

let run ?cache { deck; analysis; options; policy } =
  let cache = match cache with Some c -> c | None -> Cache.global () in
  match load ~cache ~policy deck with
  | Error f -> Error f
  | Ok loaded ->
    (match analyze ~cache ~options loaded analysis with
     | Ok outcome -> Ok outcome
     | Error f -> Error f)
