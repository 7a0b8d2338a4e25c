(* Answer checking, run after the timed phase and counted in no metric.
   Every manifest a timed operation produced is diffed against a
   reference at `acstab diff` tolerances: the committed golden manifest,
   the dense oracle, or a sequential-sweep run of the same deck. *)

module P = Tool.Pipeline

let fingerprint job =
  let analysis =
    match job.Decks.analysis with
    | P.All_nodes None -> "all"
    | P.All_nodes (Some ns) -> String.concat "," ns
    | P.Auto_nodes -> "auto"
    | P.Single_node n -> "single:" ^ n
  in
  Printf.sprintf "%s|%s|%d|%s" job.Decks.name analysis job.ppd
    (Digest.to_hex (Digest.string job.text))

let compute job =
  let options =
    match job.Decks.reference with
    | Decks.Dense -> Decks.options ~backend:`Dense job
    | Decks.Seq -> Decks.options ~parallel:`Seq job
    | Decks.Golden _ -> Decks.options job
  in
  match P.run ~cache:(Tool.Cache.create ()) (Decks.request ~options job) with
  | Ok o -> Ok o.P.manifest
  | Error f -> Error (P.failure_message f)

let references : (string, (Tool.Manifest.t, string) result) Hashtbl.t =
  Hashtbl.create 64

let compute_reference job =
  match job.Decks.reference with
  | Decks.Golden path -> Tool.Manifest.load path
  | Decks.Dense | Decks.Seq -> compute job

let reference job =
  let key = fingerprint job in
  match Hashtbl.find_opt references key with
  | Some r -> r
  | None ->
    let r = compute_reference job in
    Hashtbl.replace references key r;
    r

(* What a timed answer keeps until it is checked: the manifest without
   its counter, histogram and lint payloads and its wall and CPU times,
   none of which the diff reads. *)
let answer (m : Tool.Manifest.t) =
  { m with counters = []; histograms = []; lint = Tool.Json.Null;
           wall_s = 0.; cpu_s = 0. }

let nodes (m : Tool.Manifest.t) =
  List.sort compare (List.map (fun e -> e.Tool.Manifest.node) m.nodes)

type verdict =
  | Agrees
  | Wrong of string            (* a peak, net or loop differs *)
  | Grade_differs of string    (* only a quality grade is lower *)

(* Peaks, probed nets and loops are the answer. A quality grade is a
   sampled health reading: Engine.Health samples every Nth factorisation
   of the process, so a deck's grade depends on what the process ran
   before it. A lower grade alone is counted apart, not as wrong. *)
let verify job (m : Tool.Manifest.t) =
  match reference job with
  | Error e -> Wrong (Printf.sprintf "%s: no reference (%s)" job.Decks.name e)
  | Ok r ->
    if nodes r <> nodes m then
      Wrong (Printf.sprintf "%s: probed nets differ from the reference" job.name)
    else
      let changes = Tool.Manifest.diff r m in
      let grade = function Tool.Manifest.Downgraded _ -> true | _ -> false in
      let show c = Format.asprintf "%s: %a" job.name Tool.Manifest.pp_change c in
      (match List.partition grade changes with
       | [], [] -> Agrees
       | _, c :: _ -> Wrong (show c)
       | c :: _, [] -> Grade_differs (show c))

(* Compute the references of every job not yet seen, in parallel: a
   reference run inside a pool task sweeps sequentially, as the Seq
   references ask. *)
let prepare jobs =
  let todo = Hashtbl.create 64 in
  List.iter
    (fun job ->
      let key = fingerprint job in
      if not (Hashtbl.mem references key || Hashtbl.mem todo key) then
        Hashtbl.replace todo key job)
    jobs;
  let todo = Hashtbl.fold (fun k j acc -> (k, j) :: acc) todo [] in
  List.iter2
    (fun (k, _) r -> Hashtbl.replace references k r)
    todo
    (Parallel.Pool.map_list ~chunk:1 (fun (_, j) -> compute_reference j) todo)

(* The answers of a timed phase, held for checking. An answer equal to
   one already held for the same job is only counted, so the heap holds
   one answer per distinct result however many runs the phase finishes,
   and the peak RSS read after it does not grow with the program's
   speed. *)
type held = (string, Decks.job * Tool.Manifest.t * int ref) Hashtbl.t

let held () : held = Hashtbl.create 64

let hold (h : held) job m =
  let a = answer m in
  let key = fingerprint job ^ "|" ^ Digest.to_hex (Digest.string (Marshal.to_string a [])) in
  match Hashtbl.find_opt h key with
  | Some (_, _, n) -> incr n
  | None -> Hashtbl.replace h key (job, a, ref 1)

(* Verify every held answer, each counted as often as it was produced;
   returns the number of wrong answers and of answers whose only
   difference is a lower quality grade, and prints each distinct one to
   stderr. *)
let verify_held (h : held) =
  let distinct = Hashtbl.fold (fun _ (job, m, n) acc -> (job, m, !n) :: acc) h [] in
  prepare (List.map (fun (job, _, _) -> job) distinct);
  List.fold_left
    (fun (wrong, graded) (job, m, n) ->
      match verify job m with
      | Agrees -> (wrong, graded)
      | Wrong why ->
        prerr_endline (Printf.sprintf "wrong answer: %s (%s, x%d)" why (fingerprint job) n);
        (wrong + n, graded)
      | Grade_differs why ->
        prerr_endline (Printf.sprintf "grade differs: %s (%s, x%d)" why (fingerprint job) n);
        (wrong, graded + n))
    (0, 0) distinct
