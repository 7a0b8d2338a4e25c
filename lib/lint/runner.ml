type config = {
  disabled : string list;
}

let default = { disabled = [] }

let enabled cfg (r : Rule.t) =
  not (List.exists (String.equal r.Rule.id) cfg.disabled)

let compare_finding (a : Rule.finding) (b : Rule.finding) =
  let c =
    compare (Rule.severity_rank a.severity) (Rule.severity_rank b.severity)
  in
  if c <> 0 then c
  else
    let c =
      match (a.line, b.line) with
      | Some la, Some lb -> compare la lb
      | Some _, None -> -1
      | None, Some _ -> 1
      | None, None -> 0
    in
    if c <> 0 then c else compare a.rule_id b.rule_id

let n_runs = Obs.Counter.make "lint.runs"

let run ?(config = default) ?report circ =
  Obs.Counter.incr n_runs;
  let ctx = Rule.make_ctx ?report circ in
  Rules.all
  |> List.concat_map (fun (r : Rule.t) ->
         if not (enabled config r) then []
         else
           (* A crashing rule must not take the whole lint pass down. *)
           match r.check ctx with
           | fs -> fs
           | exception e ->
             [ Rule.finding ~id:r.id Rule.Warning
                 (Printf.sprintf "rule crashed: %s" (Printexc.to_string e))
             ])
  |> List.stable_sort compare_finding

let errors fs =
  List.filter (fun (f : Rule.finding) -> f.severity = Rule.Error) fs

let has_errors fs = errors fs <> []

let explain_singular ?index circ =
  let fs = run circ |> errors in
  let relevant =
    match index with
    | None -> fs
    | Some k -> (
      (* Prefer findings that mention the failing unknown by name. *)
      match Engine.Mna.compile circ with
      | exception _ -> fs
      | mna ->
        let name = Engine.Mna.unknown_name mna k in
        let strip s =
          let n = String.length s in
          if n > 3 && (String.sub s 0 2 = "V(" || String.sub s 0 2 = "I(")
          then String.sub s 2 (n - 3)
          else s
        in
        let target = strip name in
        let mentions (f : Rule.finding) =
          List.exists (String.equal target) f.nets
          || List.exists (String.equal target) f.devices
        in
        let hits = List.filter mentions fs in
        if hits <> [] then hits else fs)
  in
  relevant
