(* Reading the program's own Obs counters by name. A counter that does
   not exist is absent (None), never an error: the benchmark must keep
   working when a later version renames or drops one. *)

type snapshot = (string * int) list

let snapshot () : snapshot = Obs.Counter.snapshot ()

let absent : (string, unit) Hashtbl.t = Hashtbl.create 8

let note_absent name = Hashtbl.replace absent name ()

let absent_names () =
  Hashtbl.fold (fun k () acc -> k :: acc) absent [] |> List.sort compare

let get (s : snapshot) name = List.assoc_opt name s

(* [after - before] for one counter; absent counters read as 0 and are
   recorded in [absent_names]. *)
let delta (before : snapshot) (after : snapshot) name =
  match get after name with
  | None -> note_absent name; 0
  | Some a -> a - Option.value ~default:0 (get before name)

(* Sum of the deltas of every counter whose name satisfies [keep]. *)
let delta_where (before : snapshot) (after : snapshot) keep =
  List.fold_left
    (fun acc (name, a) ->
      if keep name then acc + (a - Option.value ~default:0 (get before name))
      else acc)
    0 after

let is_busy_ns name =
  String.starts_with ~prefix:"pool." name
  && String.ends_with ~suffix:".busy_ns" name

(* Accumulates named sums across operations. *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) name v =
    Hashtbl.replace t name (v +. Option.value ~default:0. (Hashtbl.find_opt t name))

  let get (t : t) name = Option.value ~default:0. (Hashtbl.find_opt t name)

  (* Add every sum of [src] into [dst]. *)
  let merge_into (dst : t) (src : t) = Hashtbl.iter (add dst) src
end
