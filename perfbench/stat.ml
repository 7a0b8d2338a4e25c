(* Sample statistics, clocks and process probes shared by the workloads. *)

let now () = float_of_int (Obs.Clock.now_ns ()) *. 1e-9

let cpu_s () = Tool.Pipeline.cpu_seconds ()

(* [f ()] and its wall time in milliseconds. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. 1e3)

(* Quantile with linear interpolation between order statistics. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (n - 1) (i + 1) in
    let frac = pos -. float_of_int i in
    a.(i) +. ((a.(j) -. a.(i)) *. frac)

let median xs = quantile 0.5 xs

(* Each key of (key, value) samples with the median of its values. *)
let medians_by_key samples =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace groups k (v :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    samples;
  Hashtbl.fold (fun k vs acc -> (k, median vs) :: acc) groups [] |> List.sort compare

let group_medians samples = List.map snd (medians_by_key samples)

let sum xs = List.fold_left ( +. ) 0. xs

let ratio num den = if den = 0. then 0. else num /. den

(* A field of /proc/<pid>/status in kB, e.g. "VmHWM". *)
let proc_status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = field ->
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          (match String.split_on_char ' ' (String.trim rest) with
           | v :: _ -> float_of_string_opt v
           | [] -> None)
        | _ -> None)

(* High-water resident set size in MiB ("self" or a pid). *)
let peak_rss_mib pid =
  Option.value ~default:nan
    (Option.map (fun kb -> kb /. 1024.) (proc_status_kb pid "VmHWM"))

(* User + system CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in USER_HZ = 100 ticks per second). *)
let proc_cpu_s pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    (* The command name (field 2) may contain spaces; count from the
       closing parenthesis. *)
    let after = String.rindex text ')' + 2 in
    let fields =
      String.split_on_char ' '
        (String.sub text after (String.length text - after))
    in
    (match (List.nth_opt fields 11, List.nth_opt fields 12) with
     | Some u, Some s ->
       (match (float_of_string_opt u, float_of_string_opt s) with
        | Some u, Some s -> Some ((u +. s) /. 100.)
        | _ -> None)
     | _ -> None)

(* Fisher-Yates shuffle of a copy. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
