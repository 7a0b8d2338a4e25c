(* The acstab benchmark: one pass of one workload.

     acbench.exe --workload paper_decks|synth_scale|serve_mixed
       --seed N --seconds S --trace 0|1 [--acstab PATH] [--commit ID]

   Run from the repository root (decks are read from circuits/ and
   golden/). The last stdout line is the result object; the line before
   it carries provenance. --trace 1 runs the traced pass, which reports
   the per-layer metrics and writes its spans to perfbench/out/.
   --abort-after-setup makes a serve pass fail once its daemon is up
   (the smoke check's proof that a failing pass still stops it). *)

let usage () =
  prerr_endline
    "usage: acbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--acstab PATH] [--commit ID]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let traced = ref false and acstab = ref "_build/default/bin/acstab.exe" in
  let commit = ref "unknown" and abort = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> traced := v = "1"; parse rest
    | "--acstab" :: v :: rest -> acstab := v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | "--abort-after-setup" :: rest -> abort := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  (* One pool worker, like the daemon's -j: on a host that lends the
     benchmark a few cores of a shared machine, a sweep split over every
     core waits for whichever core a neighbour holds, and its time
     measured the neighbours (see README.md). *)
  Parallel.Pool.set_jobs Serve_load.jobs;
  let seed = !seed and seconds = !seconds and traced = !traced in
  let workload = !workload and commit = !commit in
  let cold build =
    Cold.run ~workload ~seed ~commit ~seconds ~traced build
  in
  let result =
    match workload with
    | "paper_decks" -> cold Decks.paper
    | "synth_scale" ->
      cold (fun () -> Decks.synth (Random.State.make [| seed |]))
    | "serve_mixed" ->
      Serve_load.run ~workload ~seed ~commit ~seconds ~traced ~abort:!abort
        ~acstab:!acstab
    | _ -> usage ()
  in
  Parallel.Pool.shutdown ();
  if traced then begin
    if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
    Trace.write (Printf.sprintf "perfbench/out/%s-seed%d.trace.json" workload seed)
  end;
  Summary.print result
