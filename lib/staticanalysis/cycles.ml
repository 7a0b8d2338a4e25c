(* Bounded elementary-cycle enumeration: Tarjan SCCs plus Johnson's
   blocked depth-first search.

   Johnson's guarantee — every elementary cycle exactly once, no
   re-exploration of dead subtrees — relies on the blocking discipline:
   a vertex stays blocked after a fruitless visit until some ancestor
   closes a cycle, at which point the B-sets cascade the unblocking.
   The two bounds interact with that discipline: when a bound stops an
   exploration we *treat the subtree as if it had yielded a cycle*
   (found := true), which keeps every vertex on the current path
   unblockable. That is conservative — some subtrees are re-explored —
   but it cannot lose a cycle that fits inside the bounds, which is the
   contract [enumerate] documents. *)

type bounds = { max_len : int; max_cycles : int }

let default_bounds = { max_len = 16; max_cycles = 4096 }

(* Tarjan, recursive: the graphs here are netlist-sized (at most a few
   thousand nets), well inside the OCaml stack. Components are numbered
   in the order Tarjan completes them. *)
let sccs adj =
  let n = Array.length adj in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next = ref 0 and ncomp = ref 0 in
  let rec connect v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          connect w;
          if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else if on_stack.(w) && index.(w) < low.(v) then low.(v) <- index.(w))
      adj.(v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !ncomp;
          if w <> v then pop ()
        | [] -> ()
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then connect v
  done;
  comp

let enumerate ?(bounds = default_bounds) adj =
  let n = Array.length adj in
  let adj = Array.map (fun l -> List.sort_uniq compare l) adj in
  let pred = Array.make n [] in
  Array.iteri (fun v ws -> List.iter (fun w -> pred.(w) <- v :: pred.(w)) ws) adj;
  let comp = sccs adj in
  let cycles = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  (* Scratch shared by every start: the reach marks hold the start that
     set them, so they need no reset; [blocked] and [bsets] are cleared
     over the start's component after its search. *)
  let fwd = Array.make n (-1) and bwd = Array.make n (-1) in
  let blocked = Array.make n false in
  let bsets = Array.make n [] in
  (* Vertices >= s of s's component that [next] reaches from s, marked
     with s in [mark]. *)
  let reach s mark next =
    mark.(s) <- s;
    let seen = ref [ s ] in
    let rec go = function
      | [] -> ()
      | v :: stack ->
        go
          (List.fold_left
             (fun stack w ->
               if w >= s && comp.(w) = comp.(s) && mark.(w) <> s then begin
                 mark.(w) <- s;
                 seen := w :: !seen;
                 w :: stack
               end
               else stack)
             stack next.(v))
    in
    go [ s ];
    !seen
  in
  (* Every cycle is enumerated at s = its minimum vertex: the search
     for start [s] runs inside the subgraph induced on vertices >= s,
     restricted to the SCC containing s there (a cycle through s cannot
     leave it). That SCC is the forward-and-backward reach of s inside
     s's SCC of the whole graph, so each start walks its own component
     only, and a start in a trivial component costs its degree. Starts
     stay in ascending order, which fixes which cycles a [max_cycles]
     cut keeps. *)
  for s = 0 to n - 1 do
    let forward = reach s fwd adj in
    ignore (reach s bwd pred);
    let in_comp w = fwd.(w) = s && bwd.(w) = s in
    if List.exists in_comp adj.(s) then begin
      if !count >= bounds.max_cycles then truncated := true
      else begin
        let path = ref [] in
        let rec unblock v =
          if blocked.(v) then begin
            blocked.(v) <- false;
            let bs = bsets.(v) in
            bsets.(v) <- [];
            List.iter unblock bs
          end
        in
        (* [depth] counts the vertices on the current path, v included. *)
        let rec circuit v depth =
          let found = ref false in
          path := v :: !path;
          blocked.(v) <- true;
          List.iter
            (fun w ->
              if in_comp w then begin
                if !count >= bounds.max_cycles then begin
                  truncated := true;
                  found := true
                end
                else if w = s then begin
                  cycles := List.rev !path :: !cycles;
                  incr count;
                  found := true
                end
                else if not blocked.(w) then begin
                  if depth >= bounds.max_len then begin
                    truncated := true;
                    found := true
                  end
                  else if circuit w (depth + 1) then found := true
                end
              end)
            adj.(v);
          if !found then unblock v
          else
            List.iter
              (fun w ->
                if in_comp w && not (List.mem v bsets.(w)) then
                  bsets.(w) <- v :: bsets.(w))
              adj.(v);
          path := List.tl !path;
          !found
        in
        ignore (circuit s 1);
        List.iter
          (fun v ->
            blocked.(v) <- false;
            bsets.(v) <- [])
          forward
      end
    end
  done;
  (List.sort compare !cycles, !truncated)
