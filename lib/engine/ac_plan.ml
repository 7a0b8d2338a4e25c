open Numerics

(* A compiled AC solve plan (DESIGN.md "AC solve pipeline").

   The small-signal MNA system of a linear(ised) circuit is
       A(w) = G + jw C
   where G collects every frequency-independent stamp (conductances,
   transconductances, controlled-source gains, source/inductor incidence
   rows, gmin) and C every reactive coefficient (capacitances, negated
   inductances and mutuals). Both share one sparsity pattern, and that
   pattern does not depend on frequency. Compiling the pattern once per
   sweep and running one symbolic analysis on it leaves each frequency
   point an O(nnz) numeric fill plus a refactorisation along the frozen
   schedule — which [Kernel] compiles into a straight-line program. *)

(* Registered with [Obs.Counter] so traces, [--metrics] summaries and
   diagnostics reports carry the value the tests assert ("one symbolic
   analysis per run"); atomic, since pooled requests compile
   concurrently. *)
let n_symbolic = Obs.Counter.make "acplan.symbolic"

let analyses () = Obs.Counter.value n_symbolic

type t = {
  size : int;
  colptr : int array;
  rowidx : int array;
  gvals : float array;     (* constant part G, aligned with rowidx *)
  cvals : float array;     (* reactive part C: A = G + jw C *)
  sym : Scmat.symbolic;    (* frozen ordering + fill-in pattern *)
}

let size t = t.size
let nnz t = t.colptr.(t.size)

(* Relative pivot floor below which a frozen pivot order is declared
   stale for this frequency and the kernel re-pivots along the frozen
   column order: bounds element growth (and thus the solve error) at
   ~1e6 while keeping fallbacks rare. *)
let pivot_tol = 1e-6

(* ---- skeleton compilation ---- *)

let compile ?(gmin = 1e-12) ?(omega_ref = 2e6 *. Float.pi) ~op mna =
  let t_compile = Obs.Span.enter () in
  let size = mna.Mna.size in
  (* Accumulate (g, c) per matrix entry; ground (-1) rows/columns drop. *)
  let tbl : (int, float ref * float ref) Hashtbl.t =
    Hashtbl.create (4 * size)
  in
  let add i j g c =
    if i >= 0 && j >= 0 then begin
      let key = (j * size) + i in
      let gr, cr =
        match Hashtbl.find_opt tbl key with
        | Some cell -> cell
        | None ->
          let cell = (ref 0., ref 0.) in
          Hashtbl.add tbl key cell;
          cell
      in
      gr := !gr +. g;
      cr := !cr +. c
    end
  in
  let quad i j g c =
    add i i g c;
    add j j g c;
    add i j (-.g) (-.c);
    add j i (-.g) (-.c)
  in
  let incidence i j br =
    add i br 1. 0.;
    add j br (-1.) 0.;
    add br i 1. 0.;
    add br j (-1.) 0.
  in
  Array.iter
    (fun (_, e) ->
      match e with
      | Mna.E_res { i; j; g } -> quad i j g 0.
      | Mna.E_cap { i; j; c; _ } -> quad i j 0. c
      | Mna.E_ind { i; j; l; br; _ } ->
        incidence i j br;
        add br br 0. (-.l)
      | Mna.E_vsrc { i; j; br; _ } -> incidence i j br
      | Mna.E_isrc _ -> ()
      | Mna.E_vcvs { i; j; ci; cj; br; gain } ->
        incidence i j br;
        add br ci (-.gain) 0.;
        add br cj gain 0.
      | Mna.E_vccs { i; j; ci; cj; gm } ->
        add i ci gm 0.;
        add i cj (-.gm) 0.;
        add j ci (-.gm) 0.;
        add j cj gm 0.
      | Mna.E_cccs { i; j; cbr; gain } ->
        add i cbr gain 0.;
        add j cbr (-.gain) 0.
      | Mna.E_ccvs { i; j; cbr; br; rm } ->
        incidence i j br;
        add br cbr (-.rm) 0.
      | Mna.E_mut { br1; br2; m } ->
        add br1 br2 0. (-.m);
        add br2 br1 0. (-.m)
      | Mna.E_diode _ | Mna.E_bjt _ | Mna.E_mos _ -> ())
    mna.Mna.elems;
  List.iter
    (function
      | Linearize.L_g { i; j; g } -> quad i j g 0.
      | Linearize.L_c { i; j; c } -> quad i j 0. c
      | Linearize.L_quad { out_p; out_m; ctrl_p; ctrl_m; gm } ->
        add out_p ctrl_p gm 0.;
        add out_p ctrl_m (-.gm) 0.;
        add out_m ctrl_p (-.gm) 0.;
        add out_m ctrl_m gm 0.)
    (Linearize.of_op op);
  for i = 0 to mna.Mna.n_nodes - 1 do
    add i i gmin 0.
  done;
  (* Flatten to CSC, columns then rows ascending. *)
  let entries =
    Hashtbl.fold (fun key (g, c) acc -> (key, !g, !c) :: acc) tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let n = List.length entries in
  let colptr = Array.make (size + 1) 0 in
  let rowidx = Array.make n 0 in
  let gvals = Array.make n 0. and cvals = Array.make n 0. in
  List.iteri
    (fun p (key, g, c) ->
      let j = key / size and i = key mod size in
      colptr.(j + 1) <- colptr.(j + 1) + 1;
      rowidx.(p) <- i;
      gvals.(p) <- g;
      cvals.(p) <- c)
    entries;
  for j = 0 to size - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  (* One symbolic analysis per plan (= per sweep). The reference
     frequency only seeds the pivot order; [omega_ref] defaults to
     1 MHz, mid-band for the tool's decade sweeps. *)
  let values =
    Array.init n (fun p -> Cx.make gvals.(p) (omega_ref *. cvals.(p)))
  in
  let a = Scmat.of_csc ~rows:size ~cols:size ~colptr ~rowidx values in
  let sym, _ = Scmat.analyze a in
  Obs.Counter.incr n_symbolic;
  let plan = { size; colptr; rowidx; gvals; cvals; sym } in
  Obs.Span.leave "acplan.compile"
    ~args:[ ("unknowns", size); ("nnz", n) ]
    t_compile;
  plan

let matrix_at t ~omega =
  let values =
    Array.init (nnz t) (fun p ->
        Cx.make t.gvals.(p) (omega *. t.cvals.(p)))
  in
  Scmat.of_csc ~rows:t.size ~cols:t.size ~colptr:t.colptr
    ~rowidx:t.rowidx values

(* ---- kernel-compiler exports ---- *)

(* The shared skeleton and frozen analysis, handed out uncopied so
   Engine.Kernel can flatten them without doubling the plan's footprint.
   Callers must treat every array as read-only: plans are shared across
   Domain-parallel sweep workers precisely because they are immutable. *)
let skeleton t = (t.colptr, t.rowidx, t.gvals, t.cvals)
let symbolic t = t.sym
