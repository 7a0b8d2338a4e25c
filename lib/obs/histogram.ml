(* Lock-free log-bucketed histograms for positive floats (condition
   numbers, residuals, chunk durations). A fixed 64-bucket layout covers
   half a decade per bucket from 1e-24 to 1e8 — wide enough for rcond at
   one end and nanosecond-scale seconds at the other — so every histogram
   shares one bucket→value mapping and recording is a single atomic
   increment with no allocation. Domains record concurrently into the
   same atomic bins; there is no per-domain buffer to merge, which is
   what makes the pool's per-worker recording safe. The registry mirrors
   [Counter]'s: process-global, idempotent [make], snapshot by name. *)

let buckets = 64
let log10_lo = -24.

(* Half a decade per bucket: 64 buckets * 0.5 = 32 decades. *)
let buckets_per_decade = 2.

type t = {
  name : string;
  bins : int Atomic.t array;
  total : int Atomic.t;
  min_cell : float Atomic.t;
  max_cell : float Atomic.t;
}

type summary = { count : int; p50 : float; p90 : float; p99 : float; max : float }

let bucket_of v =
  if Float.is_nan v then buckets - 1
  else if v <= 0. then 0
  else
    let i = int_of_float (Float.floor ((Float.log10 v -. log10_lo) *. buckets_per_decade)) in
    if i < 0 then 0 else if i > buckets - 1 then buckets - 1 else i

(* Geometric midpoint of bucket [i]'s bounds: the representative value
   reported for percentiles. *)
let value_of i = Float.pow 10. (log10_lo +. ((float_of_int i +. 0.5) /. buckets_per_decade))

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let make name =
  Mutex.lock registry_mutex;
  let h =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h =
          {
            name;
            bins = Array.init buckets (fun _ -> Atomic.make 0);
            total = Atomic.make 0;
            min_cell = Atomic.make infinity;
            max_cell = Atomic.make neg_infinity;
          }
        in
        Hashtbl.add registry name h;
        h
  in
  Mutex.unlock registry_mutex;
  h

let name h = h.name

(* CAS loops like [Counter.record_max]; floats are boxed so
   compare_and_set works on the exact value we read. A NaN compares
   false both ways and so moves neither bound. *)
let rec bump_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then bump_max cell v

let rec bump_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then bump_min cell v

let observe h v =
  Atomic.incr h.bins.(bucket_of v);
  Atomic.incr h.total;
  bump_min h.min_cell v;
  bump_max h.max_cell v

let count h = Atomic.get h.total

(* Bucketed histograms merge exactly: same layout everywhere, so
   merging is bin-wise addition. Used to fold per-shard histograms
   (e.g. per-daemon request latencies) into one readout. Concurrent
   [observe]s on either side can at worst be missed by this pass, as
   with [summary]. *)
let merge ~into src =
  if into != src then begin
    Array.iteri
      (fun i b ->
        let n = Atomic.get b in
        if n > 0 then ignore (Atomic.fetch_and_add into.bins.(i) n))
      src.bins;
    let n = Atomic.get src.total in
    if n > 0 then ignore (Atomic.fetch_and_add into.total n);
    bump_min into.min_cell (Atomic.get src.min_cell);
    bump_max into.max_cell (Atomic.get src.max_cell)
  end

let percentile_from bins total q =
  (* Smallest bucket whose cumulative count reaches q * total. *)
  let target =
    let t = Float.to_int (Float.ceil (q *. float_of_int total)) in
    if t < 1 then 1 else if t > total then total else t
  in
  let rec go i acc =
    if i >= buckets then value_of (buckets - 1)
    else
      let acc = acc + bins.(i) in
      if acc >= target then value_of i else go (i + 1) acc
  in
  go 0 0

let summary h =
  (* Counts are monotone, so a racing [observe] can at worst make the
     snapshot one sample short — fine for a diagnostic readout. A
     bucket's representative value can lie outside the samples that
     fell in it (a bucket of ones reads 1.8), so quantiles are clamped
     into the exact [min, max]: a quantile never exceeds the max. *)
  let bins = Array.map Atomic.get h.bins in
  let total = Array.fold_left ( + ) 0 bins in
  if total = 0 then { count = 0; p50 = 0.; p90 = 0.; p99 = 0.; max = 0. }
  else
    (* Only NaN samples leave the max at its neg_infinity seed: read 0
       then, as before, and keep lo <= hi. *)
    let hi =
      let m = Atomic.get h.max_cell in
      if m = neg_infinity then 0. else m
    in
    let lo = Float.min (Atomic.get h.min_cell) hi in
    let q p = Float.min hi (Float.max lo (percentile_from bins total p)) in
    { count = total; p50 = q 0.50; p90 = q 0.90; p99 = q 0.99; max = hi }

let find name =
  Mutex.lock registry_mutex;
  let h = Hashtbl.find_opt registry name in
  Mutex.unlock registry_mutex;
  h

let snapshot () =
  Mutex.lock registry_mutex;
  let all = Hashtbl.fold (fun _ h acc -> h :: acc) registry [] in
  Mutex.unlock registry_mutex;
  all
  |> List.filter_map (fun h ->
         let s = summary h in
         if s.count = 0 then None else Some (h.name, s))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ h ->
      Array.iter (fun b -> Atomic.set b 0) h.bins;
      Atomic.set h.total 0;
      Atomic.set h.min_cell infinity;
      Atomic.set h.max_cell neg_infinity)
    registry;
  Mutex.unlock registry_mutex
