(* @serve-smoke — end-to-end exercise of the `acstab serve` daemon.

   Starts the daemon on a private socket, then over the wire: a cold
   all-nodes request, a warm repeat that must be answered from the
   cache with byte-identical results and zero extra DC solves / zero
   extra symbolic analyses / zero extra kernel compiles (asserted from
   the Obs counters via the protocol's own `counters` command), four
   concurrent in-flight requests on four connections, the removed
   backend names refused with a structured error, and a clean shutdown
   that removes the socket file. *)

let sock =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "acstab-smoke-%d.sock" (Unix.getpid ()))

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve-smoke: FAIL: " ^ m);
      (try Sys.remove sock with Sys_error _ -> ());
      exit 1)
    fmt

let mem name j =
  match Tool.Json.member name j with
  | Some v -> v
  | None -> fail "response lacks %S in %s" name (Tool.Json.to_string j)

let expect_ok j =
  match Tool.Json.mem_bool "ok" j with
  | Some true -> ()
  | _ -> fail "request not ok: %s" (Tool.Json.to_string j)

let expect_cache verdict j =
  match Tool.Json.mem_str "cache" j with
  | Some v when v = verdict -> ()
  | v ->
    fail "expected cache=%s, got %s" verdict
      (Option.value ~default:"<absent>" v)

let counter c name =
  let r = Tool.Server.Client.request c (Tool.Json.Obj [ ("cmd", Tool.Json.Str "counters") ]) in
  expect_ok r;
  match Option.bind (Tool.Json.member "counters" r) (Tool.Json.mem_int name) with
  | Some n -> n
  | None -> fail "counter %S missing" name

let deck_text = Circuit.Netlist.to_spice (Workloads.Ladder.rc ())

let analyze_fields =
  [ ("cmd", Tool.Json.Str "analyze");
    ("deck_text", Tool.Json.Str deck_text);
    ("name", Tool.Json.Str "rc_ladder_20.sp") ]

let () =
  let server =
    Thread.create (fun () -> Tool.Server.serve ~socket:sock ()) ()
  in
  let rec wait_for_socket n =
    if n = 0 then fail "daemon socket never appeared"
    else if not (Sys.file_exists sock) then begin
      Unix.sleepf 0.05;
      wait_for_socket (n - 1)
    end
  in
  wait_for_socket 200;
  let c = Tool.Server.Client.connect sock in

  (* Protocol sanity. *)
  let pong =
    Tool.Server.Client.request c (Tool.Json.Obj [ ("cmd", Tool.Json.Str "ping") ])
  in
  expect_ok pong;
  (match Tool.Json.mem_str "protocol" pong with
   | Some p when p = Tool.Server.protocol_version -> ()
   | p ->
     fail "protocol mismatch: %s" (Option.value ~default:"<absent>" p));

  (* Cold request: a miss that does real work, compiling exactly one
     kernel on the default solve path. *)
  let all_nodes =
    Tool.Json.Obj (("mode", Tool.Json.Str "all-nodes") :: analyze_fields)
  in
  let compiles0 = counter c "kernel.compiles" in
  let cold = Tool.Server.Client.request c all_nodes in
  expect_ok cold;
  expect_cache "miss" cold;
  let compiles1 = counter c "kernel.compiles" in
  if compiles1 <> compiles0 + 1 then
    fail "cold request compiled %d kernels, wanted 1" (compiles1 - compiles0);

  (* Warm repeat: a hit, byte-identical, zero re-solves. *)
  let dc0 = counter c "dcop.solves"
  and sym0 = counter c "acplan.symbolic" in
  let warm = Tool.Server.Client.request c all_nodes in
  expect_ok warm;
  expect_cache "hit" warm;
  let dc1 = counter c "dcop.solves"
  and sym1 = counter c "acplan.symbolic"
  and compiles2 = counter c "kernel.compiles" in
  if dc1 <> dc0 then fail "warm request re-solved DC (%d -> %d)" dc0 dc1;
  if sym1 <> sym0 then
    fail "warm request re-ran symbolic analysis (%d -> %d)" sym0 sym1;
  if compiles2 <> compiles1 then
    fail "warm request recompiled the kernel (%d -> %d)" compiles1 compiles2;
  List.iter
    (fun field ->
      let bytes j = Tool.Json.to_string (mem field j) in
      if bytes cold <> bytes warm then
        fail "warm %s differs from cold" field)
    [ "nodes"; "manifest"; "deck_sha256" ];

  (* Four concurrent in-flight requests on four connections: all sent
     before any response is read, so the daemon holds (at least) four
     at once and answers them through the pool. *)
  let nodes =
    match Tool.Json.to_list (mem "nodes" cold) with
    | Some l -> List.filter_map (Tool.Json.mem_str "node") l
    | None -> fail "cold response has no node list"
  in
  let picks =
    match nodes with
    | a :: b :: d :: e :: _ -> [ a; b; d; e ]
    | _ -> fail "ladder run returned fewer than 4 nodes"
  in
  let clients = List.map (fun _ -> Tool.Server.Client.connect sock) picks in
  List.iter2
    (fun cl node ->
      Tool.Server.Client.send cl
        (Tool.Json.Obj
           (("mode", Tool.Json.Str "single-node")
            :: ("node", Tool.Json.Str node)
            :: analyze_fields)))
    clients picks;
  List.iter2
    (fun cl node ->
      let r = Tool.Server.Client.recv cl in
      expect_ok r;
      (match Tool.Json.to_list (mem "nodes" r) with
       | Some [ entry ] ->
         (match Tool.Json.mem_str "node" entry with
          | Some n when n = node -> ()
          | n ->
            fail "concurrent response for %s names %s" node
              (Option.value ~default:"<absent>" n))
       | _ -> fail "concurrent single-node response malformed");
      Tool.Server.Client.close cl)
    clients picks;
  (* The concurrent batch reused the warm operating point. *)
  let dc2 = counter c "dcop.solves" in
  if dc2 <> dc1 then
    fail "concurrent requests re-solved DC (%d -> %d)" dc1 dc2;

  (* Static loops report over the wire: a cold miss builds the graph,
     a warm repeat is a hit with zero rebuilds (cache.sfg family). *)
  let ring_text =
    "ring smoke\nVIN in 0 DC 0 AC 1\nRIN in a 1k\nGA b 0 a 0 1m\n\
     RA b 0 1k\nCB b 0 1n\nGB a 0 b 0 1m\n.end\n"
  in
  let loops_req =
    Tool.Json.Obj
      [ ("cmd", Tool.Json.Str "loops");
        ("deck_text", Tool.Json.Str ring_text);
        ("name", Tool.Json.Str "ring.sp") ]
  in
  let loops_cold = Tool.Server.Client.request c loops_req in
  expect_ok loops_cold;
  expect_cache "miss" loops_cold;
  let report = mem "report" loops_cold in
  (match Tool.Json.mem_str "schema" report with
   | Some "acstab-loops/1" -> ()
   | s ->
     fail "loops schema mismatch: %s" (Option.value ~default:"<absent>" s));
  (match Tool.Json.to_list (mem "loops" report) with
   | Some [ loop ] ->
     (match Tool.Json.mem_str "id" loop with
      | Some "a>b" -> ()
      | i -> fail "loop id %s, wanted a>b" (Option.value ~default:"?" i))
   | _ -> fail "ring deck must report exactly one loop");
  let builds0 = counter c "sfg.builds" in
  let loops_warm = Tool.Server.Client.request c loops_req in
  expect_ok loops_warm;
  expect_cache "hit" loops_warm;
  let builds1 = counter c "sfg.builds" in
  if builds1 <> builds0 then
    fail "warm loops request rebuilt the graph (%d -> %d)" builds0 builds1;

  (* "nodes": "auto" analyzes exactly the report's probe cover. *)
  let auto =
    Tool.Server.Client.request c
      (Tool.Json.Obj
         [ ("cmd", Tool.Json.Str "analyze");
           ("mode", Tool.Json.Str "all-nodes");
           ("nodes", Tool.Json.Str "auto");
           ("deck_text", Tool.Json.Str ring_text);
           ("name", Tool.Json.Str "ring.sp") ])
  in
  expect_ok auto;
  (match Tool.Json.to_list (mem "nodes" auto) with
   | Some [ entry ] ->
     (match Tool.Json.mem_str "node" entry with
      | Some "a" -> ()
      | n ->
        fail "auto probed %s, wanted the cover net a"
          (Option.value ~default:"<absent>" n))
   | Some l -> fail "auto probed %d nets, wanted the 1-net cover" (List.length l)
   | None -> fail "auto analyze returned no node list");

  (* The backend names that no longer exist, like any unknown name,
     are a usage error (exit-code contract 2) naming the backend, not a
     crash: the same daemon keeps answering on the same connection. *)
  List.iter
    (fun name ->
      let r =
        Tool.Server.Client.request c
          (Tool.Json.Obj
             (("mode", Tool.Json.Str "all-nodes")
              :: ("backend", Tool.Json.Str name)
              :: analyze_fields))
      in
      (match Tool.Json.mem_bool "ok" r with
       | Some false -> ()
       | _ -> fail "backend %S accepted: %s" name (Tool.Json.to_string r));
      let err = mem "error" r in
      (match Tool.Json.mem_int "code" err with
       | Some 2 -> ()
       | cd ->
         fail "backend %S error code %d, wanted the usage code 2" name
           (Option.value ~default:(-1) cd));
      (match Tool.Json.mem_str "message" err with
       | Some m when m = Printf.sprintf "unknown backend %S" name -> ()
       | m ->
         fail "backend %S error message %s" name
           (Option.value ~default:"<absent>" m));
      expect_ok
        (Tool.Server.Client.request c
           (Tool.Json.Obj [ ("cmd", Tool.Json.Str "ping") ])))
    [ "plan"; "sparse"; "kernel"; "warp" ];

  (* stats: every cache family reports occupancy next to its traffic. *)
  let stats =
    Tool.Server.Client.request c
      (Tool.Json.Obj [ ("cmd", Tool.Json.Str "stats") ])
  in
  expect_ok stats;
  let cache_stats = mem "cache" stats in
  List.iter
    (fun fam ->
      match Tool.Json.member fam cache_stats with
      | None -> fail "stats reply lacks the %s cache family" fam
      | Some f ->
        List.iter
          (fun field ->
            if Tool.Json.mem_int field f = None then
              fail "stats %s family lacks %S" fam field)
          [ "entries"; "capacity"; "hits"; "misses"; "evictions" ])
    [ "op"; "kernel"; "result"; "sfg" ];
  (match Option.bind (Tool.Json.member "kernel" cache_stats)
           (Tool.Json.mem_int "entries") with
   | Some n when n >= 1 -> ()
   | _ ->
     fail "kernel family shows no resident entries after analyze requests");
  (match Option.bind (Tool.Json.member "sfg" cache_stats)
           (Tool.Json.mem_int "entries") with
   | Some n when n >= 1 -> ()
   | _ -> fail "sfg family shows no resident entries after loops requests");

  (* A second daemon on the live socket must refuse, not steal it. *)
  (match Tool.Server.serve ~socket:sock () with
   | () -> fail "second daemon took over the live socket"
   | exception Failure m ->
     let mentions sub =
       let n = String.length sub and len = String.length m in
       let rec go i = i + n <= len && (String.sub m i n = sub || go (i + 1)) in
       go 0
     in
     if not (mentions "already serving") then
       fail "second-daemon refusal unclear: %s" m);

  (* Clean shutdown: the loop exits and the socket file is removed. *)
  let bye =
    Tool.Server.Client.request c
      (Tool.Json.Obj [ ("cmd", Tool.Json.Str "shutdown") ])
  in
  expect_ok bye;
  Tool.Server.Client.close c;
  Thread.join server;
  if Sys.file_exists sock then fail "socket file survived shutdown";

  (* Stale-socket recovery: a socket file nobody answers (a crashed
     daemon's leftover) is unlinked and the new daemon starts. *)
  let stale = sock ^ ".stale" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  let server2 =
    Thread.create (fun () -> Tool.Server.serve ~socket:stale ()) ()
  in
  let rec connect_retry n =
    if n = 0 then fail "daemon never recovered the stale socket"
    else
      match Tool.Server.Client.connect stale with
      | c2 -> c2
      | exception _ ->
        Unix.sleepf 0.05;
        connect_retry (n - 1)
  in
  let c2 = connect_retry 200 in
  let pong2 =
    Tool.Server.Client.request c2
      (Tool.Json.Obj [ ("cmd", Tool.Json.Str "ping") ])
  in
  expect_ok pong2;
  let bye2 =
    Tool.Server.Client.request c2
      (Tool.Json.Obj [ ("cmd", Tool.Json.Str "shutdown") ])
  in
  expect_ok bye2;
  Tool.Server.Client.close c2;
  Thread.join server2;
  if Sys.file_exists stale then fail "stale socket path survived shutdown";

  print_endline
    "serve-smoke: OK (cold miss with 1 kernel compile, warm hit \
     byte-identical with 0 DC re-solves, 0 symbolic re-analyses and 0 \
     kernel recompiles, 4 concurrent in-flight requests, loops cold/warm \
     with 0 graph rebuilds, nodes=auto cover run, removed backend names \
     refused with the daemon still answering, per-family cache stats, \
     live-socket refusal, stale-socket recovery, clean shutdown)"
