(* What one pass reports: the last stdout line is the JSON object the
   benchmark contract asks for; provenance goes on the line before. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;             (* failed, refused or wrong answers *)
  correct : bool;
  metrics : metric list;
  provenance : (string * Tool.Json.t) list;
}

let m name unit_ value = { name; value; unit_ }

let print t =
  let open Tool.Json in
  print_endline (to_string (Obj [ ("provenance", Obj t.provenance) ]));
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool t.correct);
            ("attempted", Num (float_of_int t.attempted));
            ("failed", Num (float_of_int t.failed));
            ("metrics",
             Obj
               (List.map
                  (fun x ->
                    (x.name, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ]))
                  t.metrics)) ]))

(* Per-layer metrics every workload reports from the library layers,
   given the summed span self times and structural counts of [n]
   decomposed analyses and the counter deltas around their cold runs. *)
let library_layers ~n ~(self : Counters.Acc.t) ~(acc : Counters.Acc.t) =
  let per v = Stat.ratio v (float_of_int n) in
  let ms name = per (Counters.Acc.get self name) in
  let a = Counters.Acc.get acc in
  let attributed =
    Stat.sum (List.map (Counters.Acc.get self) Layers.pipeline_layers)
  in
  [ m "circuit.parse_ms" "ms" (ms "circuit.parse");
    m "lint.run_ms" "ms" (ms "lint.run");
    m "staticanalysis.report_ms" "ms" (ms "staticanalysis.report");
    m "staticanalysis.builds_per_analysis" "count" (per (a "sfg.builds"));
    m "engine.prepare_ms" "ms" (ms "engine.prepare");
    m "engine.dc_solves_per_analysis" "count" (per (a "dcop.solves"));
    m "engine.compile_ms" "ms" (ms "engine.compile");
    m "engine.lu_fill_ratio" "ratio" (Stat.ratio (a "nnz_lu") (a "nnz_a"));
    m "engine.lu_madds_per_point" "count" (per (a "madds"));
    m "probe.coarse_ms" "ms" (ms "probe.coarse");
    m "probe.solves_per_s" "1/s"
      (Stat.ratio (a "coarse_solves") (Counters.Acc.get self "probe.coarse" /. 1e3));
    m "probe.points_per_analysis" "count" (per (a "probe.points"));
    m "analysis.zoom_point_share" "ratio"
      (1. -. Stat.ratio (a "coarse_points") (a "probe.points"));
    m "analysis.run_ms" "ms" (ms "analysis.run");
    m "analysis.zoom_windows_per_analysis" "count" (per (a "analysis.zoom_windows"));
    m "report.render_ms" "ms" (ms "report.render");
    m "tool.manifest_ms" "ms" (ms "tool.manifest");
    m "tool.manifest_encode_ms" "ms" (ms "tool.manifest_encode");
    m "tool.manifest_kb" "KiB" (per (a "manifest_kb"));
    m "tool.unattributed_ms" "ms" (per (a "run_ms" -. attributed)) ]

(* Counter deltas of one cold Pipeline.run that the library layers use. *)
let run_counters =
  [ "sfg.builds"; "dcop.solves"; "probe.points"; "analysis.zoom_windows" ]

let pool_counters = [ "probe.sweeps"; "probe.sweeps_par"; "pool.lock_wait_ns"; "pool.steal_fails" ]

let cache_families = [ "result"; "op"; "plan"; "sfg" ]

let all_families = [ "op"; "plan"; "kernel"; "result"; "sfg" ]

let cache_counters =
  List.concat_map
    (fun f ->
      List.map (Printf.sprintf "cache.%s.%s" f) [ "hits"; "misses"; "evictions" ])
    all_families

(* Add the deltas of [names] between two snapshots to [acc]. *)
let accumulate acc before after names =
  List.iter
    (fun name ->
      Counters.Acc.add acc name (float_of_int (Counters.delta before after name)))
    names

(* Fold one cold Pipeline.run's wall time and counter deltas into [acc]. *)
let record_run acc ~before ~after ~t0 ~t1 =
  Counters.Acc.add acc "run_ms" ((t1 -. t0) *. 1e3);
  Counters.Acc.add acc "run_s" (t1 -. t0);
  Counters.Acc.add acc "busy_s"
    (float_of_int (Counters.delta_where before after Counters.is_busy_ns) /. 1e9);
  accumulate acc before after (run_counters @ pool_counters)

let pool_and_cache ~n ~(acc : Counters.Acc.t) ~busy_s ~wall_s ~jobs =
  let a = Counters.Acc.get acc in
  let per v = Stat.ratio v (float_of_int n) in
  let hit_ratio f =
    let h = a (Printf.sprintf "cache.%s.hits" f)
    and mi = a (Printf.sprintf "cache.%s.misses" f) in
    Stat.ratio h (h +. mi)
  in
  [ m "pool.busy_ratio" "ratio" (Stat.ratio busy_s (wall_s *. float_of_int jobs));
    m "pool.par_sweep_share" "ratio"
      (Stat.ratio (a "probe.sweeps_par") (a "probe.sweeps"));
    m "pool.lock_wait_ms" "ms" (per (a "pool.lock_wait_ns" /. 1e6));
    m "pool.steal_fails" "count" (per (a "pool.steal_fails")) ]
  @ List.map
      (fun f -> m (Printf.sprintf "cache.%s_hit_ratio" f) "ratio" (hit_ratio f))
      cache_families
  @ [ m "cache.evictions" "count"
        (Stat.sum
           (List.map (fun f -> a (Printf.sprintf "cache.%s.evictions" f)) all_families)) ]

let provenance_common ~workload ~seed ~commit =
  let open Tool.Json in
  [ ("workload", Str workload);
    ("seed", Num (float_of_int seed));
    ("commit", Str commit);
    ("ocaml", Str Sys.ocaml_version);
    ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
    ("pool_jobs", Num (float_of_int (Parallel.Pool.jobs ())));
    ("pool_effective_jobs", Num (float_of_int (Parallel.Pool.effective_jobs ())));
    ("absent_counters",
     Arr (List.map (fun n -> Str n) (Counters.absent_names ()))) ]

(* Per-deck structural figures of a traced pass: the workload-level
   ratios above pool every deck, these keep them apart. *)
let by_deck (tbl : (string, int * Counters.Acc.t) Hashtbl.t) =
  let open Tool.Json in
  let rows =
    Hashtbl.fold
      (fun name (n, acc) rows ->
        let a = Counters.Acc.get acc in
        let per v = Num (Stat.ratio v (float_of_int n)) in
        ( name,
          Obj
            [ ("analyses", Num (float_of_int n));
              ("run_ms", per (a "run_ms"));
              ("sfg_builds", per (a "sfg.builds"));
              ("probe_points", per (a "probe.points"));
              ("zoom_point_share",
               Num (1. -. Stat.ratio (a "coarse_points") (a "probe.points")));
              ("lu_fill_ratio", Num (Stat.ratio (a "nnz_lu") (a "nnz_a")));
              ("lu_madds_per_point", per (a "madds")) ] )
        :: rows)
      tbl []
  in
  Obj (List.sort compare rows)
