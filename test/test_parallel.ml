(* The persistent worker pool: scheduling semantics, exception
   propagation, nested submission, and the determinism + plan-reuse
   contracts of the parallel stability pipeline. *)

let with_jobs n f =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs saved) f

(* The pool clamps to the core count, so on a small CI machine [-j 4]
   runs inline and never exercises worker domains. Forcing
   oversubscription turns the real scheduler back on — domains, deals,
   steals — whatever the hardware. *)
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

(* ---------- pool primitives ---------- *)

let test_pool_empty_and_tiny () =
  with_jobs 2 (fun () ->
      Alcotest.(check (list int)) "empty list" []
        (Parallel.Pool.map_list (fun x -> x) []);
      Alcotest.(check (list int)) "singleton runs inline" [ 42 ]
        (Parallel.Pool.map_list (fun x -> x * 2) [ 21 ]);
      Parallel.Pool.parallel_for ~n:0 (fun _ -> assert false))

let test_pool_order_preserved () =
  with_jobs 2 (fun () ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int)) "map_list order"
        (List.map (fun x -> x * x) xs)
        (Parallel.Pool.map_list ~chunk:1 (fun x -> x * x) xs);
      let a = Array.init 257 (fun i -> i - 128) in
      Alcotest.(check (array int)) "map_array order"
        (Array.map (fun x -> (3 * x) + 1) a)
        (Parallel.Pool.map_array (fun x -> (3 * x) + 1) a))

let test_pool_each_index_once () =
  with_jobs 2 (fun () ->
      let n = 50 in
      (* Each task touches only its own cell, so no synchronisation is
         needed to count executions. *)
      let hits = Array.make n 0 in
      Parallel.Pool.parallel_for ~chunk:1 ~n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "every index exactly once"
        (Array.make n 1) hits)

let test_pool_exception_propagation () =
  with_jobs 2 (fun () ->
      Alcotest.check_raises "body exception reaches submitter"
        (Failure "boom 37") (fun () ->
          Parallel.Pool.parallel_for ~chunk:1 ~n:64 (fun i ->
              if i = 37 then failwith "boom 37"));
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "pool usable after failure" [ 0; 1; 4 ]
        (Parallel.Pool.map_list (fun x -> x * x) [ 0; 1; 2 ]))

let test_pool_nested_runs_inline () =
  with_jobs 2 (fun () ->
      let outer = 4 and inner = 8 in
      let sums = Array.make outer 0 in
      Parallel.Pool.parallel_for ~chunk:1 ~n:outer (fun o ->
          Alcotest.(check bool) "body sees worker context" true
            (Parallel.Pool.in_worker ());
          (* Inner submission from a pool task must run inline (no
             oversubscription, no deadlock) and still compute. *)
          Parallel.Pool.parallel_for ~n:inner (fun i ->
              sums.(o) <- sums.(o) + i));
      Alcotest.(check (array int)) "nested loops computed"
        (Array.make outer (inner * (inner - 1) / 2))
        sums);
  Alcotest.(check bool) "not a worker outside submissions" false
    (Parallel.Pool.in_worker ())

let test_pool_set_jobs () =
  let saved = Parallel.Pool.jobs () in
  Parallel.Pool.set_jobs 3;
  Alcotest.(check int) "set_jobs 3" 3 (Parallel.Pool.jobs ());
  Parallel.Pool.set_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Parallel.Pool.jobs ());
  Alcotest.(check (list int)) "jobs=1 runs inline" [ 1; 2; 3 ]
    (Parallel.Pool.map_list (fun x -> x + 1) [ 0; 1; 2 ]);
  Parallel.Pool.set_jobs saved

let test_pool_effective_jobs () =
  with_jobs 4 (fun () ->
      let cores = Domain.recommended_domain_count () in
      Alcotest.(check int) "clamped to the hardware"
        (Int.min 4 (Int.max 1 cores))
        (Parallel.Pool.effective_jobs ());
      Alcotest.(check int) "requested jobs still reported" 4
        (Parallel.Pool.jobs ());
      Parallel.Pool.set_oversubscribe true;
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.set_oversubscribe false)
        (fun () ->
          Alcotest.(check int) "oversubscription honours the request" 4
            (Parallel.Pool.effective_jobs ())))

(* The same scheduling contracts as above, but with worker domains
   forced into existence (oversubscribed past the core count if need
   be): real deals, real steals, real per-worker locks. *)
let test_pool_real_workers () =
  with_real_workers 4 (fun () ->
      let n = 500 in
      let chunks0 =
        match Obs.Counter.find "pool.chunks" with
        | Some c -> Obs.Counter.value c
        | None -> Alcotest.fail "pool.chunks counter missing"
      in
      let hits = Array.make n 0 in
      Parallel.Pool.parallel_for ~chunk:1 ~n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "each index exactly once on domains"
        (Array.make n 1) hits;
      let chunks1 =
        match Obs.Counter.find "pool.chunks" with
        | Some c -> Obs.Counter.value c
        | None -> assert false
      in
      Alcotest.(check int) "every chunk executed exactly once" n
        (chunks1 - chunks0);
      let xs = List.init 200 Fun.id in
      Alcotest.(check (list int)) "order preserved on domains"
        (List.map (fun x -> x * 7) xs)
        (Parallel.Pool.map_list ~chunk:1 (fun x -> x * 7) xs);
      Alcotest.check_raises "exception crosses domains"
        (Failure "boom 11") (fun () ->
          Parallel.Pool.parallel_for ~chunk:1 ~n:64 (fun i ->
              if i = 11 then failwith "boom 11"));
      Alcotest.(check (list int)) "pool survives the failure" [ 0; 2; 4 ]
        (Parallel.Pool.map_list (fun x -> 2 * x) [ 0; 1; 2 ]))

let test_adaptive_chunk_target () =
  let saved = Parallel.Pool.chunk_target_ms () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.set_chunk_target_ms saved)
    (fun () ->
      Parallel.Pool.set_chunk_target_ms 2.5;
      Alcotest.(check (float 1e-9)) "target readable" 2.5
        (Parallel.Pool.chunk_target_ms ());
      Parallel.Pool.set_chunk_target_ms (-1.);
      Alcotest.(check (float 1e-9)) "non-positive target ignored" 2.5
        (Parallel.Pool.chunk_target_ms ());
      (* Results must not depend on granularity: run the same batch at
         extreme targets (tiny -> many chunks, huge -> few) on real
         workers and require identical output. *)
      with_real_workers 3 (fun () ->
          let run () =
            Parallel.Pool.map_array
              (fun x -> (x * x) - x)
              (Array.init 300 Fun.id)
          in
          Parallel.Pool.set_chunk_target_ms 0.001;
          let fine = run () in
          Parallel.Pool.set_chunk_target_ms 50.;
          let coarse = run () in
          Alcotest.(check (array int))
            "chunk granularity never changes results" fine coarse))

(* ---------- environment knob grammar ---------- *)

(* The exact strings ACSTAB_JOBS / ACSTAB_CHUNK_MS accept, pinned via
   the exported pure parsers — no environment mutation, no respawned
   processes. Anything rejected here makes the reader warn and fall
   back instead of silently misconfiguring the pool. *)
let test_env_parse_grammar () =
  let jobs = Alcotest.(option int) and ms = Alcotest.(option (float 1e-9)) in
  Alcotest.check jobs "plain integer" (Some 4) (Parallel.Pool.parse_jobs "4");
  Alcotest.check jobs "surrounding whitespace trimmed" (Some 8)
    (Parallel.Pool.parse_jobs " 8 ");
  Alcotest.check jobs "one is the floor" (Some 1)
    (Parallel.Pool.parse_jobs "1");
  Alcotest.check jobs "zero rejected, not clamped" None
    (Parallel.Pool.parse_jobs "0");
  Alcotest.check jobs "negative rejected" None
    (Parallel.Pool.parse_jobs "-2");
  Alcotest.check jobs "non-numeric rejected" None
    (Parallel.Pool.parse_jobs "many");
  Alcotest.check jobs "empty rejected" None (Parallel.Pool.parse_jobs "");
  Alcotest.check jobs "float rejected for an integer knob" None
    (Parallel.Pool.parse_jobs "2.5");
  Alcotest.check ms "decimal milliseconds" (Some 2.5)
    (Parallel.Pool.parse_chunk_ms "2.5");
  Alcotest.check ms "scientific notation" (Some 1000.)
    (Parallel.Pool.parse_chunk_ms "1e3");
  Alcotest.check ms "whitespace trimmed" (Some 0.25)
    (Parallel.Pool.parse_chunk_ms " 0.25 ");
  Alcotest.check ms "integer spelling of a float knob" (Some 3.)
    (Parallel.Pool.parse_chunk_ms "3");
  Alcotest.check ms "zero rejected (target must be positive)" None
    (Parallel.Pool.parse_chunk_ms "0");
  Alcotest.check ms "negative rejected" None
    (Parallel.Pool.parse_chunk_ms "-1.5");
  Alcotest.check ms "infinity rejected" None
    (Parallel.Pool.parse_chunk_ms "inf");
  Alcotest.check ms "nan rejected" None (Parallel.Pool.parse_chunk_ms "nan");
  Alcotest.check ms "non-numeric rejected" None
    (Parallel.Pool.parse_chunk_ms "fast");
  Alcotest.check ms "empty rejected" None (Parallel.Pool.parse_chunk_ms "")

(* ---------- the `Auto seq/par decision ---------- *)

let test_auto_decision () =
  (* Shapes of a real tiny deck and a real >= 1k-unknown synthetic mesh:
     the tiny one must never clear the volume cutoff, the large one
     always does. *)
  let tiny_work = Stability.Probe.estimated_work ~unknowns:15 ~points:61 ~nets:1 in
  let mesh = Workloads.Synth.rc_mesh ~rows:32 ~cols:32 () in
  let unknowns = (Engine.Mna.compile mesh).Engine.Mna.size in
  let large_work =
    Stability.Probe.estimated_work ~unknowns ~points:61 ~nets:4
  in
  Alcotest.(check bool) "tiny deck under the cutoff" true
    (tiny_work < Stability.Probe.auto_threshold);
  Alcotest.(check bool) "mesh workload over the cutoff" true
    (large_work >= Stability.Probe.auto_threshold);
  (* Sequential pool => `Auto must be sequential even for huge sweeps. *)
  with_jobs 1 (fun () ->
      Alcotest.(check bool) "no workers -> seq" false
        (Stability.Probe.auto_decision ~unknowns ~points:61 ~nets:4));
  (* With jobs requested, the decision follows the *effective* count:
     never "parallel" into a pool the core clamp will run inline. *)
  with_jobs 4 (fun () ->
      Alcotest.(check bool) "decision tracks effective_jobs"
        (Parallel.Pool.effective_jobs () > 1)
        (Stability.Probe.auto_decision ~unknowns ~points:61 ~nets:4);
      Alcotest.(check bool) "tiny deck stays sequential" false
        (Stability.Probe.auto_decision ~unknowns:15 ~points:61 ~nets:1));
  (* Real workers available => the large deck must go parallel. *)
  with_real_workers 4 (fun () ->
      Alcotest.(check bool) "workers + volume -> par" true
        (Stability.Probe.auto_decision ~unknowns ~points:61 ~nets:4);
      Alcotest.(check bool) "tiny deck still seq" false
        (Stability.Probe.auto_decision ~unknowns:15 ~points:61 ~nets:1))

(* ---------- job queue rides the pool ---------- *)

let test_job_backtrace_captured () =
  let outcomes =
    Tool.Job.run_all ~parallel:`Seq
      [ ("ok", fun () -> 7); ("bad", fun () -> failwith "job crashed") ]
  in
  match outcomes with
  | [ ok; bad ] ->
    Alcotest.(check bool) "ok result" true (ok.Tool.Job.result = Ok 7);
    Alcotest.(check bool) "failure captured" true
      (match bad.Tool.Job.result with
       | Error (Failure m) -> m = "job crashed"
       | _ -> false);
    Alcotest.(check bool) "crash-site backtrace captured" true
      (bad.Tool.Job.backtrace <> None);
    Alcotest.check_raises "results_exn re-raises"
      (Failure "job crashed") (fun () ->
        ignore (Tool.Job.results_exn outcomes))
  | _ -> Alcotest.fail "expected two outcomes"

(* ---------- determinism of the stability pipeline ---------- *)

let quick_options =
  { Stability.Analysis.default_options with
    sweep = Numerics.Sweep.decade 1e3 1e9 10;
    refine_per_decade = 100 }

let check_deterministic name circ =
  let probe = Stability.Probe.prepare circ in
  let seq =
    Stability.Analysis.all_nodes_prepared
      ~options:{ quick_options with parallel = `Seq } probe
  in
  with_jobs 2 (fun () ->
      let par =
        Stability.Analysis.all_nodes_prepared
          ~options:{ quick_options with parallel = `Par } probe
      in
      (* Bit-identical, not merely close: pooled point-solves write
         disjoint cells with the same arithmetic as the sequential
         loop. *)
      Alcotest.(check bool)
        (name ^ ": pooled all-nodes equals sequential exactly") true
        (seq = par))

let test_determinism_opamp () =
  check_deterministic "opamp_2mhz" (Workloads.Opamp_2mhz.buffer ())

let test_determinism_nmc () =
  check_deterministic "nmc_amp" (Workloads.Nmc_amp.buffer ())

(* ---------- one symbolic analysis per run (plan reuse) ---------- *)

let test_one_symbolic_per_run () =
  let probe = Stability.Probe.prepare (Workloads.Opamp_2mhz.buffer ()) in
  let sym = Engine.Ac_plan.analyses () in
  let before = Engine.Kernel.totals () in
  ignore (Stability.Analysis.all_nodes_prepared ~options:quick_options probe);
  let after = Engine.Kernel.totals () in
  Alcotest.(check int)
    "coarse + every zoom window share one plan compilation" (sym + 1)
    (Engine.Ac_plan.analyses ());
  Alcotest.(check int) "no pivot-order fallbacks" 0
    (after.Engine.Kernel.fallback - before.Engine.Kernel.fallback);
  let sym = Engine.Ac_plan.analyses () in
  ignore
    (Stability.Analysis.single_node_prepared ~options:quick_options probe
       Workloads.Opamp_2mhz.node_out);
  Alcotest.(check int) "single-node run compiles once too" (sym + 1)
    (Engine.Ac_plan.analyses ())

let () =
  Fun.protect ~finally:Parallel.Pool.shutdown (fun () ->
      Alcotest.run "parallel"
        [ ("pool",
           [ Alcotest.test_case "empty and tiny inputs" `Quick
               test_pool_empty_and_tiny;
             Alcotest.test_case "order preserved" `Quick
               test_pool_order_preserved;
             Alcotest.test_case "each index exactly once" `Quick
               test_pool_each_index_once;
             Alcotest.test_case "exception propagation" `Quick
               test_pool_exception_propagation;
             Alcotest.test_case "nested submission inline" `Quick
               test_pool_nested_runs_inline;
             Alcotest.test_case "set_jobs" `Quick test_pool_set_jobs;
             Alcotest.test_case "effective_jobs clamp" `Quick
               test_pool_effective_jobs;
             Alcotest.test_case "real worker domains" `Quick
               test_pool_real_workers;
             Alcotest.test_case "adaptive chunk target" `Quick
               test_adaptive_chunk_target;
             Alcotest.test_case "env knob grammar" `Quick
               test_env_parse_grammar ]);
          ("auto",
           [ Alcotest.test_case "seq/par decision" `Quick
               test_auto_decision ]);
          ("jobs",
           [ Alcotest.test_case "backtrace capture" `Quick
               test_job_backtrace_captured ]);
          ("determinism",
           [ Alcotest.test_case "opamp_2mhz seq = par" `Quick
               test_determinism_opamp;
             Alcotest.test_case "nmc_amp seq = par" `Quick
               test_determinism_nmc ]);
          ("plan reuse",
           [ Alcotest.test_case "one symbolic per run" `Quick
               test_one_symbolic_per_run ]) ])
