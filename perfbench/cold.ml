(* The cold workloads (paper_decks, synth_scale): one closed-loop caller
   runs every deck through Tool.Pipeline.run on a fresh cache, in a
   seeded order per rotation, until the time is up. After each cold run
   it repeats the identical request on the now-warm cache (hit_ms) and
   asks for the cache and counter state (ctl_ms). *)

module P = Tool.Pipeline
module A = Counters.Acc

(* Warm repeats after each cold run: enough hit samples per deck even
   where cold runs take seconds. *)
let warm_repeats = 5

(* One set-up: build the decks, load each one (parse and lint gate, as
   every run's first step does) and start the pool; returns the decks
   and when it started and ended. setup_s is the median over
   [initial_setups] before the timed phase and up to [spread_setups]
   more, one at the end of a rotation once a tenth of the pass has gone
   by since the last, each calibrated like every other timing. Their
   number does not grow with the program's speed, because every pool
   restart raises the process's peak RSS. *)
let setup build =
  Parallel.Pool.shutdown ();
  let t0 = Stat.now () in
  let jobs = build () in
  Array.iter
    (fun job ->
      match P.load (Decks.deck job) with
      | Ok _ -> ()
      | Error f -> failwith (job.Decks.name ^ ": " ^ P.failure_message f))
    jobs;
  Parallel.Pool.parallel_for ~n:(8 * Parallel.Pool.effective_jobs ()) ignore;
  (jobs, t0, Stat.now ())

let initial_setups = 3
let spread_setups = 10

let render (o : P.outcome) = ignore (Stability.Report.all_nodes_string o.results)

(* The daemon's analyze answer for an outcome, encoded as it would be
   sent — the in-process share of what serving the answer costs. *)
let response_text (o : P.outcome) =
  let open Tool.Json in
  let mjson = Tool.Manifest.json o.manifest in
  to_string
    (Obj
       [ ("ok", Bool true); ("cache", Str "miss");
         ("deck_sha256", Str o.loaded.P.sha256); ("wall_s", Num o.wall_s);
         ("nodes", Option.value ~default:(Arr []) (member "nodes" mjson));
         ("manifest", mjson) ])

(* One cold run of [job] with its counter deltas and layer decomposition
   folded into [acc] — the traced measurement of a deck outside a timed
   loop. *)
let layer_sample ~acc ~op job =
  let before = Counters.snapshot () in
  let t0 = Stat.now () in
  let r = P.run ~cache:(Tool.Cache.create ()) (Decks.request job) in
  let t1 = Stat.now () in
  let after = Counters.snapshot () in
  match r with
  | Error f -> failwith (job.Decks.name ^ ": " ^ P.failure_message f)
  | Ok _ ->
    Summary.record_run acc ~before ~after ~t0 ~t1;
    Layers.decompose ~op ~acc job

(* The in-process counterpart of the daemon's stats and counters
   answers: cache occupancy and the counter registry, JSON-encoded. One
   ctl_ms sample is the mean over a block of [ctl_block] of them. *)
let ctl_block = 20

let stats_answer cache =
  let open Tool.Json in
  to_string
    (Obj
       [ ("cache",
          Arr
            (List.map
               (fun (f : Tool.Cache.family_stats) ->
                 Obj [ ("family", Str f.family);
                       ("entries", Num (float_of_int f.entries));
                       ("hits", Num (float_of_int f.hits)) ])
               (Tool.Cache.stats cache)));
         ("counters",
          Obj
            (List.map
               (fun (k, n) -> (k, Num (float_of_int n)))
               (Obs.Counter.snapshot ()))) ])

let run ~workload ~seed ~commit ~seconds ~traced build =
  (* Calibration samples are taken between operations of the untraced
     pass only. *)
  let cal = Calib.create () in
  let tick () = if not traced then Calib.tick cal in
  let setups = ref [] in
  let set_up () =
    let jobs, t0, t1 = setup build in
    setups := (t0, t1) :: !setups;
    tick ();
    jobs
  in
  for _ = 2 to initial_setups do ignore (set_up ()) done;
  let jobs = set_up () in
  let rng = Random.State.make [| seed; 1 |] in
  (* Latency samples tagged with their deck. *)
  let cold = ref [] and hits = ref [] and ctl = ref [] in
  let respond_ms = ref [] and respond_kb = ref [] in
  let answers = Check.held () in
  let attempted = ref 0 and failed = ref 0 in
  let acc = A.create () and instr = ref 0. and ops = ref 0 in
  let by_deck = Hashtbl.create 16 in
  let snap () =
    if traced then begin
      let t0 = Stat.now () in
      let s = Counters.snapshot () in
      instr := !instr +. (Stat.now () -. t0);
      s
    end
    else []
  in
  let one job =
    let cache = Tool.Cache.create () in
    let req = Decks.request job in
    let before = snap () in
    let c0 = Stat.cpu_s () and t0 = Stat.now () in
    let r = P.run ~cache req in
    let t_run = Stat.now () in
    Result.iter render r;
    let t1 = Stat.now () and c1 = Stat.cpu_s () in
    let after = snap () in
    incr attempted;
    match r with
    | Error f ->
      incr failed;
      prerr_endline ("failed: " ^ job.Decks.name ^ ": " ^ P.failure_message f)
    | Ok o ->
      cold := (job.Decks.name, t0, t1, (c1 -. c0) *. 1e3) :: !cold;
      Check.hold answers job o.manifest;
      let text, ms = Stat.timed (fun () -> response_text o) in
      respond_ms := ms :: !respond_ms;
      respond_kb := (float_of_int (String.length text) /. 1024.) :: !respond_kb;
      for _ = 1 to warm_repeats do
        let t2 = Stat.now () in
        let w = P.run ~cache req in
        Result.iter render w;
        let t3 = Stat.now () in
        incr attempted;
        match w with
        | Ok w ->
          hits := (job.Decks.name, t2, t3) :: !hits;
          Check.hold answers job w.manifest
        | Error _ -> incr failed
      done;
      let after_warm = snap () in
      for _ = 1 to 10 do
        let t2 = Stat.now () in
        for _ = 1 to ctl_block do ignore (stats_answer cache) done;
        ctl := (t2, Stat.now ()) :: !ctl
      done;
      if traced then begin
        let op = !ops in
        incr ops;
        Trace.spans := Trace.make ~op "pipeline.run" ~t0 ~t1:t_run :: !Trace.spans;
        let op_acc = A.create () in
        A.add op_acc "op_s" (t1 -. t0);
        Summary.record_run op_acc ~before ~after ~t0 ~t1:t_run;
        Summary.accumulate op_acc before after_warm Summary.cache_counters;
        Layers.decompose ~op ~acc:op_acc job;
        A.merge_into acc op_acc;
        (match Hashtbl.find_opt by_deck job.Decks.name with
         | Some (n, a) -> A.merge_into a op_acc; Hashtbl.replace by_deck job.name (n + 1, a)
         | None -> Hashtbl.replace by_deck job.name (1, op_acc))
      end
  in
  let t_start = Stat.now () in
  let deadline = t_start +. seconds in
  let interval = seconds /. float_of_int spread_setups in
  let next_setup = ref (t_start +. interval) in
  while Stat.now () < deadline do
    Array.iter
      (fun job -> one job; tick ())
      (Stat.shuffle rng jobs);
    if Stat.now () >= !next_setup then begin
      ignore (set_up ());
      next_setup := Stat.now () +. interval
    end
  done;
  let wall = Stat.now () -. t_start in
  let peak_rss = Stat.peak_rss_mib "self" in
  (* Everything below is checking and reporting, outside every metric. *)
  let wrong, graded = Check.verify_held answers in
  let failed = !failed + wrong in
  let n_cold = List.length !cold in
  Calib.freeze cal;
  (* The end-to-end metrics from timings scaled by [sc]. *)
  let end_to_end (sc : Calib.scale) =
    let ms (t0, t1) = sc.wall ~t0 ~t1 ((t1 -. t0) *. 1e3) in
    let cold_ms = List.map (fun (name, t0, t1, _) -> (name, ms (t0, t1))) !cold in
    (* Percentiles over decks of each deck's median: the decks'
       latencies form separate bands, and a percentile over pooled
       samples that falls between two bands swings with every run. *)
    let colds = Stat.group_medians cold_ms in
    let p50 = Stat.quantile 0.5 colds and p90 = Stat.quantile 0.9 colds in
    (* Over the cold runs' own time: the warm repeats, control samples
       and bookkeeping between them are not analyses. *)
    let per_s =
      Stat.ratio (float_of_int n_cold) (Stat.sum (List.map snd cold_ms) /. 1e3)
    in
    let cpu_ms =
      Stat.sum (List.map (fun (_, t0, t1, c) -> sc.cpu ~t0 ~t1 c) !cold)
    in
    [ Summary.m "setup_s" "s" (Stat.median (List.map ms !setups) /. 1e3);
      Summary.m "cold_ms_p50" "ms" p50;
      Summary.m "cold_ms_p90" "ms" p90;
      Summary.m "analyses_per_s" "1/s" per_s;
      Summary.m "cpu_ms_per_analysis" "ms" (Stat.ratio cpu_ms (float_of_int n_cold));
      (* Every analysis request of this stream is cold. *)
      Summary.m "req_ms_p50" "ms" p50;
      Summary.m "req_ms_p90" "ms" p90;
      Summary.m "hit_ms_p50" "ms"
        (Stat.median
           (Stat.group_medians
              (List.map (fun (name, t0, t1) -> (name, ms (t0, t1))) !hits)));
      Summary.m "ctl_ms_p90" "ms"
        (Stat.quantile 0.9
           (List.map (fun span -> ms span /. float_of_int ctl_block) !ctl));
      Summary.m "req_per_s" "1/s" per_s;
      Summary.m "peak_rss_mb" "MiB" peak_rss ]
  in
  let raw = if traced then [] else end_to_end Calib.unscaled in
  let metrics =
    if not traced then end_to_end (Calib.scaled cal)
    else
      let n = !ops in
      Summary.library_layers ~n ~self:(Trace.self_ms_by_name ()) ~acc
      @ Summary.pool_and_cache ~n ~acc ~busy_s:(A.get acc "busy_s")
          ~wall_s:(A.get acc "run_s") ~jobs:(Parallel.Pool.effective_jobs ())
      @ [ Summary.m "server.overhead_ms_p50" "ms" (Stat.median !respond_ms);
          Summary.m "server.response_kb_p50" "KiB" (Stat.median !respond_kb);
          Summary.m "bench.trace_overhead" "ratio" (Stat.ratio !instr (A.get acc "op_s"));
          Summary.m "error_rate" "ratio"
            (Stat.ratio (float_of_int failed) (float_of_int !attempted)) ]
  in
  let provenance =
    Summary.provenance_common ~workload ~seed ~commit
    @ [ ("cache_capacity", Tool.Json.Str "fresh cache per cold analysis");
        ("analyses", Tool.Json.Num (float_of_int n_cold));
        ("grade_mismatches", Tool.Json.Num (float_of_int graded));
        ("wall_s", Tool.Json.Num wall);
        ("decks", Tool.Json.Arr (Array.to_list (Array.map Decks.describe jobs))) ]
    @
    if traced then [ ("layers_by_deck", Summary.by_deck by_deck) ]
    else
      Calib.provenance cal raw
      @ (let by_deck key spans =
           ( key,
             Tool.Json.Obj
               (List.map
                  (fun (name, v) -> (name, Tool.Json.Num v))
                  (Stat.medians_by_key
                     (List.map
                        (fun (name, t0, t1) ->
                          (name, Calib.wall cal ~t0 ~t1 ((t1 -. t0) *. 1e3)))
                        spans))) )
         in
         [ by_deck "cold_ms_by_deck"
             (List.map (fun (name, t0, t1, _) -> (name, t0, t1)) !cold);
           by_deck "hit_ms_by_deck" !hits ])
  in
  { Summary.attempted = !attempted; failed; correct = failed = 0; metrics; provenance }
