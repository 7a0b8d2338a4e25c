(* The three static passes over the signal-flow graph. Everything here
   is deterministic: ties break on net or device names, cycles come out
   of [Cycles.enumerate] canonically ordered, so the same deck always
   produces byte-identical reports (the @staticcheck goldens rely on
   it). *)

let n_builds = Obs.Counter.make "sfg.builds"

type loop_kind = Global | Local of string

let kind_string = function
  | Global -> "global"
  | Local d -> "local:" ^ d

type loop = {
  id : string;
  nets : string list;
  devices : string list;
  gain_order : int;
  kind : loop_kind;
  probeable : string list;
}

type t = {
  graph : Sfg.t;
  loops : loop list;
  truncated : bool;
  cover : string list;
  uncovered : loop list;
  undrivable : string list option;
  open_gain : string list;
}

let default_bounds = Cycles.default_bounds

(* Hops of a cycle, as (from, to) vertex pairs, wrap included. *)
let hops cycle =
  match cycle with
  | [] -> []
  | first :: _ ->
    let rec go = function
      | [ last ] -> [ (last, first) ]
      | a :: (b :: _ as rest) -> (a, b) :: go rest
      | [] -> []
    in
    go cycle

let loop_of_cycle circ g cycle =
  let hop_edges = List.map (fun (u, v) -> Sfg.edges_between g u v) (hops cycle) in
  let gain_order =
    List.length
      (List.filter
         (List.exists (fun (e : Sfg.edge) -> e.kind = Sfg.Gain))
         hop_edges)
  in
  let devices =
    List.concat_map (List.map (fun (e : Sfg.edge) -> e.device)) hop_edges
    |> List.sort_uniq compare
  in
  let nets = List.map (Sfg.net g) cycle in
  let probeable =
    List.filter_map
      (fun v -> if Sfg.is_pinned g v then None else Some (Sfg.net g v))
      cycle
    |> List.sort compare
  in
  (* Local: every member net lies on one device's terminals (the loop
     is the device's own small-signal skeleton — a follower or mirror
     loop), whichever loop device qualifies first alphabetically. *)
  let contained_in dname =
    match Circuit.Netlist.find_device circ dname with
    | None -> false
    | Some d ->
      let terms =
        List.filter
          (fun n -> not (Circuit.Netlist.is_ground n))
          (Circuit.Netlist.device_nodes d)
      in
      List.for_all (fun n -> List.mem n terms) nets
  in
  let kind =
    match List.find_opt contained_in devices with
    | Some d -> Local d
    | None -> Global
  in
  { id = String.concat ">" nets; nets; devices; gain_order; kind; probeable }

(* Greedy hitting set over the probeable member nets: pick the net
   covering the most still-uncovered loops, smallest name on ties, until
   every coverable loop is observed. *)
let greedy_cover loops =
  let coverable = List.filter (fun l -> l.probeable <> []) loops in
  let rec go chosen remaining =
    match remaining with
    | [] -> List.rev chosen
    | _ ->
      let tally = Hashtbl.create 32 in
      List.iter
        (fun l ->
          List.iter
            (fun n ->
              Hashtbl.replace tally n
                (1 + Option.value ~default:0 (Hashtbl.find_opt tally n)))
            l.probeable)
        remaining;
      let best =
        Hashtbl.fold
          (fun n c acc ->
            match acc with
            | Some (bn, bc) when bc > c || (bc = c && bn <= n) -> acc
            | _ -> Some (n, c))
          tally None
      in
      (match best with
       | None -> List.rev chosen
       | Some (n, _) ->
         go (n :: chosen)
           (List.filter (fun l -> not (List.mem n l.probeable)) remaining))
  in
  go [] coverable

let covers t loop =
  List.find_opt (fun n -> List.mem n loop.probeable) t.cover

let analyze ?(bounds = default_bounds) circ =
  let g =
    Obs.Span.with_ "sfg.build" (fun () ->
        Obs.Counter.incr n_builds;
        Sfg.build circ)
  in
  let scc_of, loops, truncated =
    Obs.Span.with_ "sfg.cycles" (fun () ->
        let adj = Sfg.succ g in
        let scc_of = Cycles.sccs adj in
        (* An SCC is worth enumerating only when a gain edge lives
           inside it: a purely passive mesh has (many) cycles but no
           feedback. *)
        let gainful = Hashtbl.create 8 in
        List.iter
          (fun (e : Sfg.edge) ->
            if e.kind = Sfg.Gain && scc_of.(e.src) = scc_of.(e.dst) then
              Hashtbl.replace gainful scc_of.(e.src) ())
          (Sfg.edges g);
        let sub =
          Array.mapi
            (fun v ws ->
              if Hashtbl.mem gainful scc_of.(v) then
                List.filter (fun w -> scc_of.(w) = scc_of.(v)) ws
              else [])
            adj
        in
        let cycles, truncated = Cycles.enumerate ~bounds sub in
        let loops =
          List.map (loop_of_cycle circ g) cycles
          |> List.filter (fun l -> l.gain_order >= 1)
          |> List.sort (fun a b ->
                 match compare b.gain_order a.gain_order with
                 | 0 -> compare a.id b.id
                 | c -> c)
        in
        (scc_of, loops, truncated))
  in
  let cover =
    Obs.Span.with_ "sfg.cover" (fun () -> greedy_cover loops)
  in
  let uncovered = List.filter (fun l -> l.probeable = []) loops in
  let undrivable =
    Option.map
      (fun reach ->
        let acc = ref [] in
        Array.iteri
          (fun v ok -> if not ok then acc := Sfg.net g v :: !acc)
          reach;
        List.sort compare !acc)
      (Sfg.reachable_from_sources g)
  in
  let open_gain =
    let in_loop = Hashtbl.create 16 in
    List.iter
      (fun (e : Sfg.edge) ->
        if e.kind = Sfg.Gain && scc_of.(e.src) = scc_of.(e.dst) then
          Hashtbl.replace in_loop e.device ())
      (Sfg.edges g);
    List.filter (fun d -> not (Hashtbl.mem in_loop d)) (Sfg.gain_devices g)
  in
  { graph = g; loops; truncated; cover; uncovered; undrivable; open_gain }
