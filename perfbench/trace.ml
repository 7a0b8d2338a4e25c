(* In-memory spans recorded by the benchmark around its calls into each
   layer. Nothing is written until the pass ends; a layer's self time is
   its span's duration minus the part of it covered by child spans. *)

type span = {
  id : int;
  parent : int option;
  op : int;              (* the operation (analysis) the span belongs to *)
  name : string;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0

(* A finished span with a fresh id, for the caller to keep. *)
let make ~op name ~t0 ~t1 =
  let id = !next_id in
  incr next_id;
  { id; parent = None; op; name; t0; t1 }

(* Run [f id] inside a span named [name]; children pass [~parent:id]. *)
let record ?parent ~op name f =
  let id = !next_id in
  incr next_id;
  let t0 = Stat.now () in
  let v = f id in
  spans := { id; parent; op; name; t0; t1 = Stat.now () } :: !spans;
  v

(* Total length of the union of [intervals]. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time in seconds of every recorded span, by span id. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace children p
            ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt children p)))
        s.parent)
    !spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, (s.t1 -. s.t0) -. covered kids))
    !spans

(* Self time summed per span name, in milliseconds. *)
let self_ms_by_name () =
  let acc = Counters.Acc.create () in
  List.iter (fun (s, self) -> Counters.Acc.add acc s.name (self *. 1e3))
    (self_times ());
  acc

(* Chrome trace-event JSON of the pass, one track per operation. *)
let write path =
  let open Tool.Json in
  let t_base = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
  let events =
    List.rev_map
      (fun (s, self) ->
        Obj
          [ ("name", Str s.name); ("ph", Str "X"); ("pid", Num 1.);
            ("tid", Num (float_of_int s.op));
            ("ts", Num ((s.t0 -. t_base) *. 1e6));
            ("dur", Num ((s.t1 -. s.t0) *. 1e6));
            ("args", Obj [ ("self_ms", Num (self *. 1e3)) ]) ])
      (self_times ())
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string (Obj [ ("traceEvents", Arr events) ])))
