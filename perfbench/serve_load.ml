(* serve_mixed: one `acstab serve` daemon driven over [nproc] client
   connections (at most 2), each a closed loop: the next request goes out
   when the previous answer is in. The seeded stream mixes fresh deck
   variants (full misses), option-only changes, repeats of evicted and of
   cached requests, one 40-stage amplifier array under "nodes":"auto",
   and one ping/stats control request per [ctl_every] analyses. Requests
   in play span twice the cache capacity, so the daemon's LRU both fills
   and evicts. *)

module J = Tool.Json
module C = Tool.Server.Client
module A = Counters.Acc

let capacity = 8
let window = 2 * capacity              (* distinct requests in play *)
let universe = 48        (* fresh variants, reused round-robin once all sent *)
let setup_reps = 8

let nproc () = max 1 (Domain.recommended_domain_count ())

(* Pool workers of the benchmark process and of the daemon. *)
let jobs = 1

type kind = Cold | Option_change | Evicted | Hit | Amp | Ping | Stats

type daemon = { pid : int; socket : string }

let spawn ~acstab ~socket =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process acstab
      [| acstab; "serve"; "--socket"; socket; "--cache-capacity";
         string_of_int capacity; "-j"; string_of_int jobs |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  { pid; socket }

let alive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let request_once socket req =
  let c = C.connect socket in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> C.request c req)

let wait_pong d =
  let deadline = Stat.now () +. 30. in
  let rec go () =
    if not (alive d) then failwith "acstab serve exited during start-up";
    if Stat.now () > deadline then failwith "acstab serve did not answer ping";
    let pong =
      Sys.file_exists d.socket
      && (match request_once d.socket (J.Obj [ ("cmd", J.Str "ping") ]) with
          | r -> J.mem_bool "pong" r = Some true
          | exception _ -> false)
    in
    if not pong then (Unix.sleepf 0.0002; go ())
  in
  go ()

(* Ask the daemon to shut down and wait for it; kill it if it does not go.
   Returns whether the daemon removed its socket itself. *)
let stop d =
  (try ignore (request_once d.socket (J.Obj [ ("cmd", J.Str "shutdown") ]))
   with _ -> ());
  let deadline = Stat.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Stat.now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  let removed = not (Sys.file_exists d.socket) in
  if not removed then Sys.remove d.socket;
  removed

(* The stream's shared state: fresh variants, the recent window, and
   every sample, behind one mutex (two client threads). *)
type state = {
  lock : Mutex.t;
  variants : Decks.job array;
  amp : Decks.job;
  mutable next_variant : int;
  mutable recent : Decks.job list;     (* newest first, at most [window] *)
  mutable dead : bool;                 (* the daemon stopped answering *)
  mutable attempted : int;
  mutable failed : int;
  (* Each timed request as (sent, answered), by kind. *)
  mutable req : (float * float) list;
  mutable cold : (string * (float * float)) list;   (* deck family *)
  mutable hits : (float * float) list;
  mutable ctl : (float * float) list;
  mutable overhead_ms : float list;
  mutable response_kb : float list;
  mutable misses : int;
  mutable analyses : int;
  mutable answers : (Decks.job * J.t) list;
  mutable spans : Trace.span list;
  mutable traced_s : float;            (* time spent recording spans *)
}

let locked st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

(* Record a request connection 0 submitted; [recent] keeps submission
   order, newest first. *)
let remember st job =
  st.recent <- List.filteri (fun i _ -> i < window) (job :: st.recent)

let fresh st =
  let j = st.variants.(st.next_variant mod universe) in
  st.next_variant <- st.next_variant + 1;
  j

(* The two connections play two kinds of client. Connection 0 submits
   analyses: cycles of 5 fresh variants, 3 option changes of a recent
   request, 2 repeats of a request old enough to have been evicted (all
   misses) and 4 repeats of one of its last four requests (result hits).
   Each cycle is a seeded shuffle of this fixed mix, so the share of
   every kind is the same on every seed. Connection 1 monitors: it sends
   ping and stats in turn, one for every [ctl_every] analyses connection
   0 sends, so that control requests are one in ten of all requests
   whatever the program's speed. Each goes out as soon as connection 0's
   next fresh variant is on its way, so that it meets a full miss in
   flight. With a single connection, connection 0 sends them itself
   after the answer. *)
let cycle =
  [ (Cold, 5); (Option_change, 3); (Evicted, 2); (Hit, 4) ]
  |> List.concat_map (fun (k, n) -> List.init n (fun _ -> k))
  |> Array.of_list

let ctl_every = 9

(* Connection 0 opens the pass with the amplifier array, alone: one
   40-net sweep per pass, sent while nothing else is in flight. *)
let amp_at = 1

let schedule rng =
  let pending = ref [] in
  fun ~index ->
    if index = amp_at then Amp
    else begin
      if !pending = [] then pending := Array.to_list (Stat.shuffle rng cycle);
      let k = List.hd !pending in
      pending := List.tl !pending;
      k
    end

(* The window positions a kind draws from: hits repeat one of the last
   four requests (all answered: connection 0 is their only sender);
   evicted repeats are at least [capacity] submissions old. *)
let nth_between rng l lo hi =
  let hi = min hi (List.length l - 1) in
  if hi < lo then None else Some (List.nth l (lo + Random.State.int rng (hi - lo + 1)))

(* Resolve a scheduled kind into the request's deck. *)
let draw st rng kind =
  locked st (fun () ->
      let fresh_cold () = let j = fresh st in remember st j; (Cold, Some j) in
      match kind with
      | Ping | Stats -> (kind, None)
      | Amp -> (Amp, Some st.amp)
      | Cold -> fresh_cold ()
      | Option_change ->
        (match nth_between rng st.recent 0 (capacity - 1) with
         | None -> fresh_cold ()
         | Some base ->
           let j =
             if Random.State.bool rng then
               { base with Decks.ppd = (if base.Decks.ppd = 30 then 40 else 30) }
             else
               { base with
                 analysis =
                   (match base.analysis with
                    | Tool.Pipeline.Auto_nodes -> Tool.Pipeline.All_nodes None
                    | _ -> Tool.Pipeline.Auto_nodes) }
           in
           remember st j;
           (Option_change, Some j))
      | Evicted ->
        (match nth_between rng st.recent capacity (window - 1) with
         | None -> fresh_cold ()
         | Some j -> remember st j; (Evicted, Some j))
      | Hit ->
        (match nth_between rng st.recent 0 3 with
         | None -> fresh_cold ()
         | Some j -> (Hit, Some j)))

let request_json kind job id =
  let base = [ ("id", J.Str (string_of_int id)) ] in
  match (kind, job) with
  | Ping, _ -> J.Obj (("cmd", J.Str "ping") :: base)
  | Stats, _ -> J.Obj (("cmd", J.Str "stats") :: base)
  | _, None -> invalid_arg "request_json"
  | _, Some j ->
    let nodes =
      match j.Decks.analysis with
      | Tool.Pipeline.Auto_nodes -> [ ("nodes", J.Str "auto") ]
      | Tool.Pipeline.All_nodes (Some ns) ->
        [ ("nodes", J.Arr (List.map (fun n -> J.Str n) ns)) ]
      | _ -> []
    in
    J.Obj
      ([ ("cmd", J.Str "analyze"); ("deck_text", J.Str j.text);
         ("name", J.Str j.name); ("mode", J.Str "all-nodes");
         ("ppd", J.Num (float_of_int j.ppd)) ]
       @ nodes @ base)

let record st ~kind ~job ~resp ~traced ~conn ~t0 ~t1 =
  let ms = (t1 -. t0) *. 1e3 in
  locked st (fun () ->
      if traced then begin
        let ti = Stat.now () in
        st.spans <- Trace.make ~op:conn "server.request" ~t0 ~t1 :: st.spans;
        st.traced_s <- st.traced_s +. (Stat.now () -. ti)
      end;
      st.attempted <- st.attempted + 1;
      let ok = J.mem_bool "ok" resp = Some true in
      match (kind, job) with
      | _ when not ok ->
        st.failed <- st.failed + 1;
        prerr_endline ("refused: " ^ J.to_string resp)
      | (Ping | Stats), _ -> st.ctl <- (t0, t1) :: st.ctl
      | _, Some job ->
        (match J.member "manifest" resp with
         | None -> st.failed <- st.failed + 1
         | Some m -> st.answers <- (job, m) :: st.answers);
        st.analyses <- st.analyses + 1;
        st.req <- (t0, t1) :: st.req;
        if kind = Cold then
          st.cold <- (Decks.family job.Decks.name, (t0, t1)) :: st.cold;
        st.response_kb <-
          (float_of_int (String.length (J.to_string resp)) /. 1024.)
          :: st.response_kb;
        if J.mem_str "cache" resp = Some "hit" then st.hits <- (t0, t1) :: st.hits
        else begin
          st.misses <- st.misses + 1;
          Option.iter
            (fun w -> st.overhead_ms <- (ms -. (w *. 1e3)) :: st.overhead_ms)
            (J.mem_float "wall_s" resp)
        end
      | _, None -> ())

(* Connection 0's analyses tell the monitor when to send. *)
type pacing = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable due : int;       (* control requests owed to the monitor *)
  mutable over : bool;     (* connection 0 has stopped *)
}

let pace p f =
  Mutex.lock p.pm;
  f p;
  Condition.broadcast p.pc;
  Mutex.unlock p.pm

(* Send one request on [client] and wait for its answer, calling
   [sent] in between. A lost connection means the daemon died: the
   request fails and the pass stops (the daemon is never restarted
   behind the caller's back); returns false then. *)
let exchange st client ~kind ~job ~id ~traced ~conn ~sent =
  let req = request_json kind job id in
  let t0 = Stat.now () in
  match
    C.send client req;
    sent ();
    C.recv client
  with
  | resp ->
    let t1 = Stat.now () in
    record st ~kind ~job ~resp ~traced ~conn ~t0 ~t1;
    true
  | exception e ->
    locked st (fun () ->
        st.dead <- true;
        st.attempted <- st.attempted + 1;
        st.failed <- st.failed + 1);
    prerr_endline ("daemon lost: " ^ Printexc.to_string e);
    false

let ctl_kind n = if n mod 2 = 0 then Ping else Stats

(* Connection 0: closed-loop analyses until [deadline]. Between two
   requests, while the daemon has nothing of connection 0's in hand, it
   takes the calibration samples that are due. *)
let analyses st d pacing ~cal ~conns ~seed ~deadline ~traced =
  let rng = Random.State.make [| seed; 10 |] in
  let next = schedule rng in
  let client = C.connect d.socket in
  let owed = ref 0 and paid = ref 0 in
  let rec loop id =
    if Stat.now () < deadline && not (locked st (fun () -> st.dead)) then begin
      let kind, job = draw st rng (next ~index:id) in
      if id mod ctl_every = 0 then incr owed;
      let ctl = kind = Cold && !owed > 0 in
      if ctl then (decr owed; incr paid);
      let sent () = if ctl && conns > 1 then pace pacing (fun p -> p.due <- p.due + 1) in
      let ok = exchange st client ~kind ~job ~id ~traced ~conn:0 ~sent in
      let ok =
        ok && ((not ctl) || conns > 1
               || exchange st client ~kind:(ctl_kind !paid) ~job:None
                    ~id:(-id) ~traced ~conn:0 ~sent:ignore)
      in
      if ok then begin
        if not traced then Calib.tick cal;
        loop (id + 1)
      end
    end
  in
  Fun.protect
    ~finally:(fun () ->
      pace pacing (fun p -> p.over <- true);
      C.close client)
    (fun () -> loop 1)

(* Connection 1: one control request each time one is due, until
   connection 0 stops. *)
let monitor st d pacing ~traced =
  let client = C.connect d.socket in
  let take () =
    Mutex.lock pacing.pm;
    while pacing.due = 0 && not pacing.over do Condition.wait pacing.pc pacing.pm done;
    let go = not pacing.over in
    if go then pacing.due <- pacing.due - 1;
    Mutex.unlock pacing.pm;
    go
  in
  let rec loop n =
    if take ()
       && exchange st client ~kind:(ctl_kind n) ~job:None ~id:(1_000_000 + n)
            ~traced ~conn:1 ~sent:ignore
    then loop (n + 1)
  in
  Fun.protect ~finally:(fun () -> C.close client) (fun () -> loop 1)

let counters d =
  match
    Option.bind
      (J.member "counters" (request_once d.socket (J.Obj [ ("cmd", J.Str "counters") ])))
      (function J.Obj kv -> Some kv | _ -> None)
  with
  | Some kv ->
    List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (J.to_int v)) kv
  | None -> []

let run ~workload ~seed ~commit ~seconds ~traced ~abort ~acstab =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
  let socket = Printf.sprintf "perfbench/out/acbench-%d.sock" (Unix.getpid ()) in
  let build () =
    let rng = Random.State.make [| seed; 2 |] in
    (* The amplifier array is the same on every seed: its one sweep is
       the pass's largest single cost. *)
    (Decks.variants rng universe, Decks.amp40 ())
  in
  (* Set-up: generate the decks, spawn the daemon, wait for its first
     pong. setup_s is the median of [setup_reps] set-ups before the timed
     phase, the last of which keeps its daemon for the pass, and as many
     after it: the host's speed drifts over seconds, and set-ups at both
     ends of the pass read more of that drift than a burst at its
     start. *)
  let cal = Calib.create () in
  let setup_once () =
    let t0 = Stat.now () in
    let decks = build () in
    let d = spawn ~acstab ~socket in
    (match wait_pong d with
     | () -> ()
     | exception e -> ignore (stop d); raise e);
    let t1 = Stat.now () in
    if not traced then Calib.tick cal;
    ((t0, t1), decks, d)
  in
  let rec setup k times =
    let t, decks, d = setup_once () in
    if k = 1 then (t :: times, decks, d)
    else (ignore (stop d); setup (k - 1) (t :: times))
  in
  let setup_times, (variants, amp), d = setup setup_reps [] in
  let st =
    { lock = Mutex.create (); variants; amp; next_variant = 0; recent = [];
      dead = false; attempted = 0; failed = 0; req = []; cold = [];
      hits = []; ctl = []; overhead_ms = []; response_kb = []; misses = 0;
      analyses = 0; answers = []; spans = []; traced_s = 0. }
  in
  let socket_removed = ref false in
  let srv = A.create () and peak_rss = ref nan and cpu_s = ref nan in
  let pass = ref (0., 0.) and wall = ref nan in
  Fun.protect
    ~finally:(fun () -> socket_removed := stop d)
    (fun () ->
      if abort then failwith "pass aborted after set-up (--abort-after-setup)";
      let before = if traced then counters d else [] in
      let cpu0 = Stat.proc_cpu_s d.pid in
      let t_start = Stat.now () in
      let deadline = t_start +. seconds in
      let conns = min 2 (nproc ()) in
      let pacing =
        { pm = Mutex.create (); pc = Condition.create (); due = 0; over = false }
      in
      let threads =
        if conns > 1 then [ Thread.create (fun () -> monitor st d pacing ~traced) () ]
        else []
      in
      analyses st d pacing ~cal ~conns ~seed ~deadline ~traced;
      List.iter Thread.join threads;
      pass := (t_start, Stat.now ());
      wall := Stat.now () -. t_start;
      (match (cpu0, Stat.proc_cpu_s d.pid) with
       | Some a, Some b -> cpu_s := b -. a
       | _ -> ());
      peak_rss := Stat.peak_rss_mib (string_of_int d.pid);
      if traced && not st.dead then begin
        let after = counters d in
        A.add srv "busy_s"
          (float_of_int (Counters.delta_where before after Counters.is_busy_ns) /. 1e9);
        Summary.accumulate srv before after
          (Summary.pool_counters @ Summary.cache_counters)
      end);
  let setups =
    List.init setup_reps (fun _ ->
        let t, _, d = setup_once () in
        ignore (stop d);
        t)
    @ setup_times
  in
  Calib.freeze cal;
  (* Checking and the traced layer samples run after the daemon is gone. *)
  let held = Check.held () in
  let unreadable =
    List.fold_left
      (fun n (job, m) ->
        match Tool.Manifest.of_json_string (J.to_string m) with
        | Ok m -> Check.hold held job m; n
        | Error e -> prerr_endline ("unreadable manifest: " ^ e); n + 1)
      0 st.answers
  in
  let wrong, graded = Check.verify_held held in
  let wrong = wrong + unreadable in
  let failed = st.failed + wrong in
  let sample_jobs =
    Array.to_list (Array.sub variants 0 (min 6 (max 1 st.next_variant)))
  in
  (* The end-to-end metrics from timings scaled by [sc]. *)
  let end_to_end (sc : Calib.scale) =
    let ms (t0, t1) = sc.wall ~t0 ~t1 ((t1 -. t0) *. 1e3) in
    let t0, t1 = !pass in
    (* Per second of the pass less the calibration samples taken in it. *)
    let stream_ms =
      sc.wall ~t0 ~t1 (((t1 -. t0) *. 1e3) -. Calib.sampled_ms cal ~t0 ~t1)
    in
    let per_s n = Stat.ratio (float_of_int n) (stream_ms /. 1e3) in
    (* As on the cold workloads: percentiles over deck families of each
       family's median. *)
    let cold_medians =
      Stat.group_medians (List.map (fun (f, span) -> (f, ms span)) st.cold)
    in
    let req = List.map ms st.req in
    [ Summary.m "setup_s" "s" (Stat.median (List.map ms setups) /. 1e3);
      Summary.m "cold_ms_p50" "ms" (Stat.quantile 0.5 cold_medians);
      Summary.m "cold_ms_p90" "ms" (Stat.quantile 0.9 cold_medians);
      Summary.m "analyses_per_s" "1/s" (per_s st.analyses);
      Summary.m "cpu_ms_per_analysis" "ms"
        (Stat.ratio (sc.cpu ~t0 ~t1 (!cpu_s *. 1e3)) (float_of_int st.analyses));
      Summary.m "req_ms_p50" "ms" (Stat.quantile 0.5 req);
      Summary.m "req_ms_p90" "ms" (Stat.quantile 0.9 req);
      Summary.m "hit_ms_p50" "ms" (Stat.median (List.map ms st.hits));
      Summary.m "ctl_ms_p90" "ms" (Stat.quantile 0.9 (List.map ms st.ctl));
      Summary.m "req_per_s" "1/s" (per_s st.attempted);
      Summary.m "peak_rss_mb" "MiB" !peak_rss ]
  in
  let raw = if traced then [] else end_to_end Calib.unscaled in
  let metrics =
    if not traced then end_to_end (Calib.scaled cal)
    else begin
      Trace.spans := st.spans;
      let lib = A.create () in
      List.iteri (fun op job -> Cold.layer_sample ~acc:lib ~op:(100 + op) job) sample_jobs;
      Summary.library_layers ~n:(List.length sample_jobs)
        ~self:(Trace.self_ms_by_name ()) ~acc:lib
      @ Summary.pool_and_cache ~n:st.misses ~acc:srv ~busy_s:(A.get srv "busy_s")
          ~wall_s:!wall ~jobs
      @ [ Summary.m "server.overhead_ms_p50" "ms" (Stat.median st.overhead_ms);
          Summary.m "server.response_kb_p50" "KiB" (Stat.median st.response_kb);
          (* Client-side spans are the only tracing on the request path. *)
          Summary.m "bench.trace_overhead" "ratio"
            (Stat.ratio st.traced_s
               (Stat.sum (List.map (fun (t0, t1) -> t1 -. t0) st.req)));
          Summary.m "error_rate" "ratio"
            (Stat.ratio (float_of_int failed) (float_of_int st.attempted)) ]
    end
  in
  let provenance =
    Summary.provenance_common ~workload ~seed ~commit
    @ [ ("cache_capacity", J.Num (float_of_int capacity));
        ("connections", J.Num (float_of_int (min 2 (nproc ()))));
        ("daemon_jobs", J.Num (float_of_int jobs));
        ("requests", J.Num (float_of_int st.attempted));
        ("analyses", J.Num (float_of_int st.analyses));
        ("control_share",
         J.Num (Stat.ratio (float_of_int (List.length st.ctl))
                  (float_of_int st.attempted)));
        ("grade_mismatches", J.Num (float_of_int graded));
        ("fresh_variants", J.Num (float_of_int st.next_variant));
        ("wall_s", J.Num !wall);
        ("daemon_died", J.Bool st.dead);
        ("socket_removed_by_daemon", J.Bool !socket_removed);
        ("decks",
         J.Arr (List.map Decks.describe (amp :: sample_jobs))) ]
    @ if traced then [] else Calib.provenance cal raw
  in
  { Summary.attempted = st.attempted; failed; correct = failed = 0 && not st.dead;
    metrics; provenance }
