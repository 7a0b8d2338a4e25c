(* Fingerprint-keyed memoization of the expensive pipeline stages.

   The paper's tool is a resident environment: a designer's session
   re-runs the same analysis many times with small edits, so the
   operating point, the compiled solve kernel and whole result sets are
   worth keeping between requests. Keys are strings built by
   [Pipeline] from the deck's SHA-256 fingerprint plus the options in
   force — an edited deck or a changed option is a different key, which
   is all the invalidation a content-addressed cache needs.

   Four families, one per pipeline stage:
   - [op]     : prepared probes (MNA compile + DC operating point)
   - [kernel] : compiled {!Engine.Kernel} solve programs, each carrying
                its {!Engine.Ac_plan} symbolic analysis (untouched when
                the options select the dense oracle)
   - [result] : full analysis outcomes (node results + run manifest)
   - [sfg]    : static signal-flow reports (loops + probe cover)

   Every family feeds always-on {!Obs.Counter}s ([cache.<family>.hits]
   / [.misses] / [.evictions]) so traces, [--metrics] and the serve
   daemon's counters command expose cache behaviour, and tests assert
   it. Lookups are mutex-protected (the serve daemon calls in from
   [Parallel.Pool] workers); the compute thunk itself runs outside the
   lock, so two simultaneous cold requests for the same key may both
   compute — the second insert wins, which is harmless because values
   of the same key are equivalent. *)

type 'a slot = {
  value : 'a;
  mutable last_used : int;  (* generation stamp for LRU eviction *)
}

type 'a family = {
  fname : string;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  evictions : Obs.Counter.t;
  table : (string, 'a slot) Hashtbl.t;
}

type result_entry = {
  results : Stability.Analysis.node_result list;
  manifest : Manifest.t;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  mutable tick : int;
  ops : Stability.Probe.t family;
  kernels : Engine.Kernel.t family;
  results : result_entry family;
  sfgs : Staticanalysis.Report.t family;
}

let family fname =
  { fname;
    hits = Obs.Counter.make (Printf.sprintf "cache.%s.hits" fname);
    misses = Obs.Counter.make (Printf.sprintf "cache.%s.misses" fname);
    evictions = Obs.Counter.make (Printf.sprintf "cache.%s.evictions" fname);
    table = Hashtbl.create 16 }

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  { mutex = Mutex.create ();
    capacity = max 1 capacity;
    tick = 0;
    ops = family "op";
    kernels = family "kernel";
    results = family "result";
    sfgs = family "sfg" }

let the_global = lazy (create ())
let global () = Lazy.force the_global

let locked c f =
  Mutex.lock c.mutex;
  match f () with
  | v -> Mutex.unlock c.mutex; v
  | exception e -> Mutex.unlock c.mutex; raise e

let stamp c = c.tick <- c.tick + 1; c.tick

(* Evict the least-recently-used slot once a family exceeds the
   capacity. Linear scan: capacities are tens of entries, and eviction
   only runs on insert. *)
let evict_lru c fam =
  if Hashtbl.length fam.table > c.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun k s ->
        match !victim with
        | Some (_, age) when age <= s.last_used -> ()
        | _ -> victim := Some (k, s.last_used))
      fam.table;
    match !victim with
    | Some (k, _) ->
      Hashtbl.remove fam.table k;
      Obs.Counter.incr fam.evictions
    | None -> ()
  end

let find c fam key =
  locked c (fun () ->
      match Hashtbl.find_opt fam.table key with
      | Some slot ->
        slot.last_used <- stamp c;
        Obs.Counter.incr fam.hits;
        Some slot.value
      | None ->
        Obs.Counter.incr fam.misses;
        None)

let insert c fam key value =
  locked c (fun () ->
      Hashtbl.replace fam.table key { value; last_used = stamp c };
      evict_lru c fam)

let memo c fam ~key compute =
  match find c fam key with
  | Some v -> (v, true)
  | None ->
    let v = compute () in
    insert c fam key v;
    (v, false)

let op c ~key compute = memo c c.ops ~key compute
let kernel c ~key compute = memo c c.kernels ~key compute
let result c ~key compute = memo c c.results ~key compute
let sfg c ~key compute = memo c c.sfgs ~key compute

let clear c =
  locked c (fun () ->
      Hashtbl.reset c.ops.table;
      Hashtbl.reset c.kernels.table;
      Hashtbl.reset c.results.table;
      Hashtbl.reset c.sfgs.table)

let capacity c = c.capacity

type family_stats = {
  family : string;
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

let family_stat (c : t) (fam : _ family) =
  { family = fam.fname;
    entries = Hashtbl.length fam.table;
    capacity = c.capacity;
    hits = Obs.Counter.value fam.hits;
    misses = Obs.Counter.value fam.misses;
    evictions = Obs.Counter.value fam.evictions }

let stats c =
  locked c (fun () ->
      [ family_stat c c.ops; family_stat c c.kernels;
        family_stat c c.results; family_stat c c.sfgs ])

(* Occupancy is state, not a monotonic count, so live exposition reads
   it through [Obs.Gauge]: the serve daemon calls this on its
   background tick (and on demand for a `metrics` request) to publish
   cache.<family>.entries / .capacity next to the hit/miss counters. *)
let sample_gauges c =
  List.iter
    (fun s ->
      Obs.Gauge.set
        (Obs.Gauge.make (Printf.sprintf "cache.%s.entries" s.family))
        (float_of_int s.entries);
      Obs.Gauge.set
        (Obs.Gauge.make (Printf.sprintf "cache.%s.capacity" s.family))
        (float_of_int s.capacity))
    (stats c)
