(* The decks each workload analyses, generated from the workload seed. *)

module N = Circuit.Netlist

(* How a deck's answer is checked after the timed phase. *)
type reference =
  | Golden of string   (* a committed manifest under golden/ *)
  | Dense              (* the same deck through the dense oracle *)
  | Seq                (* the same deck with sequential sweeps *)

type job = {
  name : string;
  text : string;                       (* SPICE deck, sent as deck text *)
  file : bool;                         (* [name] is a deck file to read *)
  analysis : Tool.Pipeline.analysis;
  ppd : int;                           (* coarse sweep points per decade *)
  reference : reference;
}

let job ?(analysis = Tool.Pipeline.All_nodes None) ?(ppd = 30) ?(file = false)
    name text reference =
  { name; text; file; analysis; ppd; reference }

(* Shipped deck files are analysed as files, as `acstab all-nodes FILE`
   does: their first line is always the title. *)
let deck job =
  if job.file then Tool.Pipeline.Deck_file job.name
  else Tool.Pipeline.Deck_text { name = job.name; text = job.text }

let parse job =
  Circuit.Parser.parse_string ~name:job.name ~first_line_title:job.file job.text

(* Multiply every resistor and capacitor by an independent factor drawn
   from [1 - spread, 1 + spread]. *)
let perturb rng ?(r = 0.) ?(c = 0.) circ =
  let f spread = 1. +. (spread *. (Random.State.float rng 2. -. 1.)) in
  N.map_devices
    (function
      | N.Resistor d -> N.Resistor { d with r = d.r *. f r }
      | N.Capacitor d -> N.Capacitor { d with c = d.c *. f c }
      | d -> d)
    circ

(* The four decks `acstab export-builtin` writes; the op-amp and the RC
   ladder have committed golden manifests. *)
let builtin () =
  [ job "opamp_2mhz_buffer" (N.to_spice (Workloads.Opamp_2mhz.buffer ()))
      (Golden "golden/opamp_allnodes.json");
    job "bias_zero_tc" (N.to_spice (Workloads.Bias_zero_tc.cell ())) Dense;
    job "nmc_amp_buffer" (N.to_spice (Workloads.Nmc_amp.buffer ())) Dense;
    job "rc_ladder_20" (N.to_spice (Workloads.Ladder.rc ()))
      (Golden "golden/ladder_allnodes.json") ]

(* paper_decks: every shipped deck, as shipped. *)
let paper () =
  let dir = "circuits" in
  let shipped =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sp")
    |> List.sort compare
    |> List.map (fun f ->
        let path = Filename.concat dir f in
        job ~file:true path
          (In_channel.with_open_bin path In_channel.input_all) Dense)
  in
  if shipped = [] then failwith "no circuits/*.sp decks found";
  Array.of_list (shipped @ builtin ())

(* [k] distinct picks from [0, n). *)
let distinct rng n k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let i = Random.State.int rng n in
      go (if List.mem i acc then acc else i :: acc)
  in
  go []

(* The 40-stage amplifier array under Auto_nodes, with the generator's
   values. *)
let amp40 () =
  job ~analysis:Tool.Pipeline.Auto_nodes "amp_array_40"
    (N.to_spice (Workloads.Synth.amp_array ~stages:40 ())) Seq

(* synth_scale: the mesh and tree probe three seeded nets each (Auto_nodes
   on a loop-free deck falls back to every net); the amplifier array runs
   under Auto_nodes. The nets are drawn from one class of equivalent
   positions, so that a seed changes which nets are probed but not how
   much work probing them takes: tree nets among the leaves, mesh nets
   among the six middle nets of the anti-diagonal (15 steps from the
   driven corner), each of which needs two zoom windows and about 880
   probe points, where the others need one window (544 points) or, at the
   corners, 726 points. The amplifier array is the same on every seed:
   perturbing its values moves its LU pivot order, and with it the
   multiply-adds per point between 18k and 47k. *)
(* Spread of the seeded R and C perturbation of the mesh and tree. At
   10 % the probe points of the mesh moved by 8 % from seed to seed;
   the seed is to vary the inputs, not the amount of work. *)
let synth_spread = 0.02

let synth rng =
  let nets f picks = Tool.Pipeline.All_nodes (Some (List.map f picks)) in
  let mesh =
    let circ =
      perturb rng ~r:synth_spread ~c:synth_spread
        (Workloads.Synth.rc_mesh ~rows:16 ~cols:16 ())
    in
    job "rc_mesh_16x16" (N.to_spice circ) Seq
      ~analysis:(nets (fun i -> Workloads.Synth.mesh_node (5 + i) (10 - i))
                   (distinct rng 6 3))
  in
  let tree =
    let circ =
      perturb rng ~r:synth_spread ~c:synth_spread
        (Workloads.Synth.rc_tree ~depth:8 ~fanout:2 ())
    in
    let inner = Workloads.Synth.tree_count ~depth:7 ~fanout:2 in
    let leaves = Workloads.Synth.tree_count ~depth:8 ~fanout:2 - inner in
    job "rc_tree_d8f2" (N.to_spice circ) Seq
      ~analysis:(nets (fun i -> Workloads.Synth.tree_node (inner + i))
                   (distinct rng leaves 3))
  in
  [| mesh; tree; amp40 () |]

(* serve_mixed: fresh capacitor-value variants of the op-amp, NMC and
   bias decks. Only capacitors move, so the DC operating point (and its
   convergence) is that of the shipped deck. They move by up to 5 %:
   enough to make every deck text distinct, little enough that a
   variant's work stays close to the shipped deck's whatever the seed. *)
let variant_spread = 0.05

let variant rng k =
  let name, circ =
    match k mod 3 with
    | 0 -> ("opamp", Workloads.Opamp_2mhz.buffer ())
    | 1 -> ("nmc", Workloads.Nmc_amp.buffer ())
    | _ -> ("bias", Workloads.Bias_zero_tc.cell ())
  in
  job (Printf.sprintf "%s_v%d" name k) (N.to_spice (perturb rng ~c:variant_spread circ)) Dense

let variants rng n = Array.init n (variant rng)

(* The deck a variant was made from: "opamp_v12" -> "opamp". *)
let family name =
  match String.rindex_opt name '_' with
  | Some i when i + 1 < String.length name && name.[i + 1] = 'v' -> String.sub name 0 i
  | _ -> name

(* The options a job runs under (the serve protocol's spelling). *)
let options ?(backend = `Auto) ?(parallel = `Auto) job =
  { Stability.Analysis.default_options with
    sweep = Numerics.Sweep.decade 1e3 1e9 job.ppd; backend; parallel }

let request ?options:opts job =
  let options = match opts with Some o -> o | None -> options job in
  Tool.Pipeline.request ~options (deck job) job.analysis

(* Unknowns, nnz(A), probed nets and coarse sweep points of one deck —
   provenance printed with every result. *)
let describe job =
  let probe = Stability.Probe.prepare (parse job) in
  let plan = Engine.Ac_plan.compile ~op:probe.Stability.Probe.op probe.mna in
  let nets =
    match job.analysis with
    | Tool.Pipeline.All_nodes (Some ns) -> string_of_int (List.length ns)
    | Tool.Pipeline.All_nodes None -> "all"
    | Tool.Pipeline.Auto_nodes -> "auto"
    | Tool.Pipeline.Single_node _ -> "1"
  in
  Tool.Json.Obj
    [ ("deck", Tool.Json.Str job.name);
      ("unknowns", Tool.Json.Num (float_of_int probe.mna.Engine.Mna.size));
      ("nnz_a", Tool.Json.Num (float_of_int (Engine.Ac_plan.nnz plan)));
      ("nets", Tool.Json.Str nets);
      ("coarse_points",
       Tool.Json.Num
         (float_of_int (Numerics.Sweep.count (options job).sweep))) ]
