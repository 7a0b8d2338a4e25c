(** Sparse matrices with LU factorisation, over an arbitrary scalar field.

    Compressed-sparse-column storage and a left-looking Gilbert–Peierls LU
    with partial pivoting (the algorithm of CSparse's [cs_lu]): column j of
    the factors comes from one sparse triangular solve against the columns
    computed so far, with the nonzero pattern discovered by depth-first
    search. Complexity is proportional to the flops actually performed, so
    circuit matrices — a handful of entries per row — factor in near-linear
    time where the dense code pays O(n^3).

    Every factorisation runs in a fill-reducing column order: a
    minimum-degree ordering of the pattern of A + A^T, as in KLU, picks
    which column step j eliminates, and partial pivoting then picks its
    row. This is the solver behind every AC sweep (through the
    compiled kernel in the engine) and behind the large linear DC systems;
    the dense LU stays beside it as the oracle (DESIGN.md section 6). *)

exception Singular of int
(** No acceptable pivot in the given column. *)

(* ---- fill-reducing column ordering ----

   Minimum degree on the pattern of A + A^T, the symmetric ordering KLU
   runs before its partial-pivoting LU. Elimination is simulated on a
   quotient graph: an eliminated pivot p becomes an *element* whose
   variable list Lp is the pattern of its factor column, and the elements
   adjacent to p are absorbed into it (their lists are subsets of Lp), so
   the graph never grows beyond the input plus one list per live element.
   Each variable keeps its remaining variable neighbours and its adjacent
   elements; edges between two members of Lp are dropped, since element p
   now implies them. Variable lists stay symmetric, so every variable
   that lists p is in Lp and drops p when p is eliminated.

   A variable's degree is its exact external degree, the size of the
   union of its variable list and its elements' lists, recounted for the
   members of Lp at each step by walking those lists. AMD's cheaper upper
   bound on that union (the sum of the
   element sizes) was measured to give half as much fill again on the
   32 x 32 RC mesh, and, through partial pivoting, 3 times as much on a
   40-stage and 29 times as much on a 600-stage amplifier array, so the
   exact count is worth its price here.

   Degrees live in a bucket queue whose buckets are ordered sets, so the
   next pivot is the lowest-index variable of minimum degree: no scan over
   all vertices, and ties break the same way on every run (the seq = par
   bit identity and the goldens rely on a deterministic order). *)

module Iset = Set.Make (Int)

let min_degree_order ~n ~colptr ~rowidx =
  let adj = Array.make n [] in
  for j = 0 to n - 1 do
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowidx.(p) in
      if i <> j then begin
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j)
      end
    done
  done;
  let vars = Array.map (List.sort_uniq compare) adj in
  let elems = Array.make n [] in
  let elem_vars = Array.make n [] in
  let absorbed = Array.make n false in
  let deg = Array.map List.length vars in
  let buckets = Array.make (Int.max 1 n) Iset.empty in
  let mindeg = ref 0 in
  let insert i =
    let d = deg.(i) in
    buckets.(d) <- Iset.add i buckets.(d);
    if d < !mindeg then mindeg := d
  in
  let remove i = buckets.(deg.(i)) <- Iset.remove i buckets.(deg.(i)) in
  for i = 0 to n - 1 do insert i done;
  (* [seen.(v) = stamp] marks v counted in the current set union. *)
  let seen = Array.make n (-1) and stamp = ref (-1) in
  let fresh () = incr stamp; !stamp in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    while Iset.is_empty buckets.(!mindeg) do incr mindeg done;
    let p = Iset.min_elt buckets.(!mindeg) in
    remove p;
    order.(k) <- p;
    let in_lp = fresh () in
    seen.(p) <- in_lp;
    let lp = ref [] in
    let add v =
      if seen.(v) <> in_lp then begin
        seen.(v) <- in_lp;
        lp := v :: !lp
      end
    in
    List.iter add vars.(p);
    List.iter
      (fun e ->
        List.iter add elem_vars.(e);
        elem_vars.(e) <- [];
        absorbed.(e) <- true)
      elems.(p);
    vars.(p) <- [];
    elems.(p) <- [];
    elem_vars.(p) <- !lp;
    List.iter
      (fun i ->
        vars.(i) <- List.filter (fun v -> seen.(v) <> in_lp) vars.(i);
        elems.(i) <-
          p :: List.filter (fun e -> not absorbed.(e)) elems.(i))
      !lp;
    List.iter
      (fun i ->
        remove i;
        let union = fresh () in
        let d = ref 0 in
        let count v =
          if v <> i && seen.(v) <> union then begin
            seen.(v) <- union;
            incr d
          end
        in
        List.iter count vars.(i);
        List.iter (fun e -> List.iter count elem_vars.(e)) elems.(i);
        deg.(i) <- !d;
        insert i)
      !lp
  done;
  order

module Make (F : Field.S) = struct
  type elt = F.t

  type t = {
    rows : int;
    cols : int;
    colptr : int array;   (* length cols+1 *)
    rowidx : int array;   (* length nnz, row index per entry *)
    values : elt array;
  }

  let rows m = m.rows
  let cols m = m.cols
  let nnz m = m.colptr.(m.cols)

  (* Wrap caller-built compressed-sparse-column arrays without copying.
     The plan compiler in the engine builds one pattern per sweep and
     refills a fresh [values] array per frequency point; sharing the
     pattern arrays is what makes the per-point fill O(nnz). *)
  let of_csc ~rows ~cols ~colptr ~rowidx values =
    if rows < 0 || cols < 0 then invalid_arg "Sparse.of_csc";
    if Array.length colptr <> cols + 1 then
      invalid_arg "Sparse.of_csc: colptr length";
    if colptr.(0) <> 0 then invalid_arg "Sparse.of_csc: colptr.(0)";
    for j = 0 to cols - 1 do
      if colptr.(j + 1) < colptr.(j) then
        invalid_arg "Sparse.of_csc: colptr not monotone"
    done;
    let n = colptr.(cols) in
    if Array.length rowidx <> n || Array.length values <> n then
      invalid_arg "Sparse.of_csc: nnz mismatch";
    Array.iter
      (fun i -> if i < 0 || i >= rows then invalid_arg "Sparse.of_csc: row")
      rowidx;
    { rows; cols; colptr; rowidx; values }

  let of_triplets ~rows ~cols triplets =
    if rows < 0 || cols < 0 then invalid_arg "Sparse.of_triplets";
    List.iter
      (fun (i, j, _) ->
        if i < 0 || i >= rows || j < 0 || j >= cols then
          invalid_arg "Sparse.of_triplets: index out of range")
      triplets;
    (* Sum duplicates via per-column accumulation. *)
    let per_col = Array.make cols [] in
    List.iter
      (fun (i, j, v) -> per_col.(j) <- (i, v) :: per_col.(j))
      triplets;
    let colptr = Array.make (cols + 1) 0 in
    let cells =
      Array.map
        (fun entries ->
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun (i, v) ->
              let cur =
                try Hashtbl.find tbl i with Not_found -> F.zero
              in
              Hashtbl.replace tbl i (F.add cur v))
            entries;
          Hashtbl.fold (fun i v acc -> (i, v) :: acc) tbl []
          |> List.filter (fun (_, v) -> F.abs v <> 0.)
          |> List.sort (fun (a, _) (b, _) -> compare a b))
        per_col
    in
    Array.iteri
      (fun j cs -> colptr.(j + 1) <- colptr.(j) + List.length cs)
      cells;
    let n = colptr.(cols) in
    let rowidx = Array.make n 0 and values = Array.make n F.zero in
    Array.iteri
      (fun j cs ->
        List.iteri
          (fun k (i, v) ->
            rowidx.(colptr.(j) + k) <- i;
            values.(colptr.(j) + k) <- v)
          cs)
      cells;
    { rows; cols; colptr; rowidx; values }

  let mulvec m x =
    if Array.length x <> m.cols then invalid_arg "Sparse.mulvec";
    let y = Array.make m.rows F.zero in
    for j = 0 to m.cols - 1 do
      let xj = x.(j) in
      if F.abs xj <> 0. then
        for p = m.colptr.(j) to m.colptr.(j + 1) - 1 do
          let i = m.rowidx.(p) in
          y.(i) <- F.add y.(i) (F.mul m.values.(p) xj)
        done
    done;
    y

  (* Growable column store for the factors. *)
  type colbuf = {
    mutable idx : int array;
    mutable v : elt array;
    mutable len : int;
  }

  let colbuf_make () = { idx = Array.make 16 0; v = Array.make 16 F.zero; len = 0 }

  let colbuf_push cb i x =
    if cb.len = Array.length cb.idx then begin
      let n = 2 * cb.len in
      let idx = Array.make n 0 and v = Array.make n F.zero in
      Array.blit cb.idx 0 idx 0 cb.len;
      Array.blit cb.v 0 v 0 cb.len;
      cb.idx <- idx;
      cb.v <- v
    end;
    cb.idx.(cb.len) <- i;
    cb.v.(cb.len) <- x;
    cb.len <- cb.len + 1

  type factor = {
    n : int;
    l_cols : colbuf array;   (* unit-diagonal L, strictly-below entries,
                                keyed by ORIGINAL row index *)
    u_cols : colbuf array;   (* U incl. diagonal (last entry), keyed by
                                pivot position *)
    pinv : int array;        (* pinv.(orig_row) = pivot position, or -1
                                during factorisation *)
    rowperm : int array;     (* rowperm.(pivot_pos) = original row *)
    q : int array;           (* q.(step) = original column eliminated *)
  }

  let order a =
    min_degree_order ~n:a.cols ~colptr:a.colptr ~rowidx:a.rowidx

  (* Left-looking LU with partial pivoting, eliminating column q.(j) at
     step j (so P A Q = L U). Rows are renamed lazily: pinv.(r) is the
     pivot position assigned to original row r, or -1. With [keep_zeros]
     every structurally reachable entry is stored even when its value is
     exactly zero — that closure is the frequency-independent symbolic
     pattern the refactorisation path relies on. *)
  let lu_factor_gen ~keep_zeros ~q a =
    if a.rows <> a.cols then invalid_arg "Sparse.lu_factor: square required";
    let n = a.rows in
    let l_cols = Array.init n (fun _ -> colbuf_make ()) in
    let u_cols = Array.init n (fun _ -> colbuf_make ()) in
    let pinv = Array.make n (-1) in
    (* Dense work vector + visited stamp per column. *)
    let x = Array.make n F.zero in
    let mark = Array.make n (-1) in
    let order = Array.make n 0 in   (* DFS postorder of the pattern *)
    (* Iterative DFS over the pattern of L (in permuted row names):
       starting from the rows of A(:,j); an entry whose row r is already
       pivotal (pinv.(r) = k >= 0) depends on column k of L. *)
    let dfs j c =
      let norder = ref 0 in
      for p = a.colptr.(c) to a.colptr.(c + 1) - 1 do
        let r0 = a.rowidx.(p) in
        if mark.(r0) <> j then begin
          (* Explicit DFS with a frontier stack of (row, next-child). *)
          let frontier = ref [ (r0, 0) ] in
          mark.(r0) <- j;
          while !frontier <> [] do
            match !frontier with
            | [] -> ()
            | (r, child) :: rest ->
              let k = pinv.(r) in
              if k < 0 then begin
                (* Non-pivotal row: a leaf. *)
                order.(!norder) <- r;
                incr norder;
                frontier := rest
              end
              else begin
                let lc = l_cols.(k) in
                if child < lc.len then begin
                  frontier := (r, child + 1) :: rest;
                  let rc = lc.idx.(child) in
                  if mark.(rc) <> j then begin
                    mark.(rc) <- j;
                    frontier := (rc, 0) :: !frontier
                  end
                end
                else begin
                  (* All children done: postorder emit. *)
                  order.(!norder) <- r;
                  incr norder;
                  frontier := rest
                end
              end
          done
        end
      done;
      !norder
    in
    for j = 0 to n - 1 do
      let c = q.(j) in
      (* Symbolic: reachable pattern in topological (reverse post) order. *)
      let norder = dfs j c in
      (* Numeric scatter of A(:,c). *)
      for p = a.colptr.(c) to a.colptr.(c + 1) - 1 do
        x.(a.rowidx.(p)) <- a.values.(p)
      done;
      (* Eliminate in topological order: process pivotal rows from the
         DFS postorder reversed (dependencies first). *)
      for o = norder - 1 downto 0 do
        let r = order.(o) in
        let k = pinv.(r) in
        if k >= 0 then begin
          let xk = x.(r) in
          if not (F.is_zero xk) then begin
            let lc = l_cols.(k) in
            for q = 0 to lc.len - 1 do
              let rr = lc.idx.(q) in
              x.(rr) <- F.sub x.(rr) (F.mul lc.v.(q) xk)
            done
          end
        end
      done;
      (* Pivot: the largest non-pivotal entry of the pattern. *)
      let pivot_row = ref (-1) in
      let pivot_mag = ref 0. in
      for o = 0 to norder - 1 do
        let r = order.(o) in
        if pinv.(r) < 0 then begin
          let m = F.abs x.(r) in
          if m > !pivot_mag then begin
            pivot_mag := m;
            pivot_row := r
          end
        end
      done;
      if !pivot_row < 0 || !pivot_mag = 0. || not (Float.is_finite !pivot_mag)
      then raise (Singular c);
      let pr = !pivot_row in
      let pv = x.(pr) in
      pinv.(pr) <- j;
      (* Store U(:,j): entries on pivotal rows (position < j), diagonal
         last. *)
      for o = 0 to norder - 1 do
        let r = order.(o) in
        let k = pinv.(r) in
        if k >= 0 && k < j && (keep_zeros || not (F.is_zero x.(r))) then
          colbuf_push u_cols.(j) k x.(r)
      done;
      colbuf_push u_cols.(j) j pv;
      (* Store L(:,j): non-pivotal rows, scaled by the pivot, keyed by
         ORIGINAL row index (renamed on the fly as rows become pivotal).
         One reciprocal per column, multiplies per entry. *)
      let ipv = F.div F.one pv in
      for o = 0 to norder - 1 do
        let r = order.(o) in
        if pinv.(r) < 0 && (keep_zeros || not (F.is_zero x.(r))) then
          colbuf_push l_cols.(j) r (F.mul x.(r) ipv)
      done;
      (* Clear the work vector. *)
      for o = 0 to norder - 1 do
        x.(order.(o)) <- F.zero
      done
    done;
    let rowperm = Array.make n 0 in
    Array.iteri (fun r k -> rowperm.(k) <- r) pinv;
    { n; l_cols; u_cols; pinv; rowperm; q }

  let lu_factor a = lu_factor_gen ~keep_zeros:false ~q:(order a) a

  (* ---- symbolic analysis + numeric refactorisation ----

     A pivoting factorisation discovers two frequency-independent things
     about an MNA system: the fill-in pattern of L and U and a pivot
     order that works for matrices of this structure. [analyze] runs the
     pivoting factorisation once, keeping every structurally reachable
     entry (numeric zeros included, so the pattern is a superset of the
     pattern at any other frequency), and freezes both. [refactor] then
     recomputes only the numeric values along the frozen pattern — no
     DFS, no pivot search — which is what turns the per-frequency cost
     of a sweep from "full factorisation" into "one sparse triangular
     replay". The column order is part of the frozen analysis: it is
     computed once here and never again for this pattern. *)

  type symbolic = {
    sym_n : int;
    sym_q : int array;        (* step -> original column *)
    sym_pinv : int array;
    sym_rowperm : int array;
    l_pat : int array array;  (* per pivot column: original row indices *)
    u_pat : int array array;  (* per column: pivot positions ascending,
                                 diagonal (j itself) last *)
  }

  let analyze a =
    let f = lu_factor_gen ~keep_zeros:true ~q:(order a) a in
    let l_pat = Array.map (fun cb -> Array.sub cb.idx 0 cb.len) f.l_cols in
    let u_pat =
      Array.mapi
        (fun j cb ->
          (* Ascending pivot positions give a valid left-looking update
             order without re-deriving the DFS topological order. *)
          let deps = Array.sub cb.idx 0 (cb.len - 1) in
          Array.sort compare deps;
          Array.append deps [| j |])
        f.u_cols
    in
    ( { sym_n = f.n; sym_q = f.q; sym_pinv = Array.copy f.pinv;
        sym_rowperm = Array.copy f.rowperm; l_pat; u_pat },
      f )

  (* The frozen elimination schedule, exported as plain arrays so a
     kernel compiler can flatten it further (Engine.Kernel bakes it into
     straight-line index programs). Copies: the symbolic analysis stays
     immutable whatever the caller does with the export. *)
  type schedule = {
    sched_n : int;
    sched_q : int array;
    sched_pinv : int array;
    sched_rowperm : int array;
    sched_l : int array array;
    sched_u : int array array;
  }

  let schedule_of s =
    { sched_n = s.sym_n;
      sched_q = Array.copy s.sym_q;
      sched_pinv = Array.copy s.sym_pinv;
      sched_rowperm = Array.copy s.sym_rowperm;
      sched_l = Array.map Array.copy s.l_pat;
      sched_u = Array.map Array.copy s.u_pat }

  (* Numeric-only refactorisation along a frozen pattern. The matrix must
     have a pattern contained in the analyzed one (the plan layer shares
     the CSC pattern arrays outright, which guarantees it). The frozen
     pivot order performed well at the analysis matrix; [pivot_tol]
     guards the frequencies where it no longer does: a pivot smaller
     than [pivot_tol] times the largest eliminated entry of its column
     raises {!Singular} so the caller can fall back to a fresh pivoting
     factorisation at that point. *)
  let refactor ?(pivot_tol = 0.) sym a =
    if a.rows <> sym.sym_n || a.cols <> sym.sym_n then
      invalid_arg "Sparse.refactor: size mismatch";
    let n = sym.sym_n in
    let mkcols pat =
      Array.map
        (fun idx ->
          { idx; v = Array.make (Array.length idx) F.zero;
            len = Array.length idx })
        pat
    in
    let l_cols = mkcols sym.l_pat and u_cols = mkcols sym.u_pat in
    let x = Array.make n F.zero in
    for j = 0 to n - 1 do
      let c = sym.sym_q.(j) in
      for p = a.colptr.(c) to a.colptr.(c + 1) - 1 do
        x.(a.rowidx.(p)) <- a.values.(p)
      done;
      let uc = u_cols.(j) in
      for q = 0 to uc.len - 2 do
        let k = uc.idx.(q) in
        let xk = x.(sym.sym_rowperm.(k)) in
        uc.v.(q) <- xk;
        if not (F.is_zero xk) then begin
          let lc = l_cols.(k) in
          for t = 0 to lc.len - 1 do
            let r = lc.idx.(t) in
            x.(r) <- F.sub x.(r) (F.mul lc.v.(t) xk)
          done
        end
      done;
      let pv = x.(sym.sym_rowperm.(j)) in
      let pmag = F.abs pv in
      if pmag = 0. || not (Float.is_finite pmag) then raise (Singular c);
      let lc = l_cols.(j) in
      if pivot_tol > 0. then begin
        let colmax = ref pmag in
        for t = 0 to lc.len - 1 do
          colmax := Float.max !colmax (F.abs x.(lc.idx.(t)))
        done;
        if pmag < pivot_tol *. !colmax then raise (Singular c)
      end;
      uc.v.(uc.len - 1) <- pv;
      let ipv = F.div F.one pv in
      for t = 0 to lc.len - 1 do
        lc.v.(t) <- F.mul x.(lc.idx.(t)) ipv
      done;
      (* The touched work entries are exactly the frozen column pattern
         (A's rows are a subset of it). *)
      for q = 0 to uc.len - 1 do
        x.(sym.sym_rowperm.(uc.idx.(q))) <- F.zero
      done;
      for t = 0 to lc.len - 1 do
        x.(lc.idx.(t)) <- F.zero
      done
    done;
    { n; l_cols; u_cols; pinv = sym.sym_pinv; rowperm = sym.sym_rowperm;
      q = sym.sym_q }

  (* A fresh pivoting factorisation in the frozen column order: where the
     frozen pivots go stale, only the row choice needs redoing, and the
     fill-reducing order already paid for stays valid. *)
  let repivot sym a =
    if a.rows <> sym.sym_n || a.cols <> sym.sym_n then
      invalid_arg "Sparse.repivot: size mismatch";
    lu_factor_gen ~keep_zeros:false ~q:sym.sym_q a

  let lu_solve f b =
    if Array.length b <> f.n then invalid_arg "Sparse.lu_solve";
    let n = f.n in
    (* Forward: y in pivot order; L columns hold original row names, so
       work on a copy indexed by original rows and read pivots through
       pinv. *)
    let w = Array.copy b in
    (* Row r with pinv.(r) = k means w.(r) is the k-th equation. Process
       columns in order: subtract L(:,k) * y_k. y_k lives at the pivot row
       of column k. *)
    for k = 0 to n - 1 do
      let yk = w.(f.rowperm.(k)) in
      if not (F.is_zero yk) then begin
        let lc = f.l_cols.(k) in
        for q = 0 to lc.len - 1 do
          let r = lc.idx.(q) in
          w.(r) <- F.sub w.(r) (F.mul lc.v.(q) yk)
        done
      end
    done;
    (* Back substitution on U (U is stored per column with the diagonal
       last, entries keyed by pivot position); the permuted intermediate
       y.(k) lives at w.(rowperm.(k)) — no separate copy. Step k solved
       for unknown q.(k). *)
    let xsol = Array.make n F.zero in
    for k = n - 1 downto 0 do
      let uc = f.u_cols.(k) in
      let diag = uc.v.(uc.len - 1) in
      let xk = F.div w.(f.rowperm.(k)) diag in
      xsol.(f.q.(k)) <- xk;
      (* U(:,k)'s above-diagonal entries feed earlier equations. *)
      if not (F.is_zero xk) then
        for q = 0 to uc.len - 2 do
          let i = f.rowperm.(uc.idx.(q)) in
          w.(i) <- F.sub w.(i) (F.mul uc.v.(q) xk)
        done
    done;
    xsol

  (* One factorisation serving many excitations: the all-nodes probing
     mode solves the same factor against one unit-current RHS per net.
     Batched column-outer / RHS-inner so each L and U column is walked
     once per frequency point, not once per net. *)
  let lu_solve_many f bs =
    let m = Array.length bs in
    if m <= 1 then Array.map (fun b -> lu_solve f b) bs
    else begin
      let n = f.n in
      Array.iter
        (fun b ->
          if Array.length b <> n then invalid_arg "Sparse.lu_solve_many")
        bs;
      let ws = Array.map Array.copy bs in
      for k = 0 to n - 1 do
        let pr = f.rowperm.(k) in
        let lc = f.l_cols.(k) in
        if lc.len > 0 then
          for s = 0 to m - 1 do
            let w = ws.(s) in
            let yk = w.(pr) in
            (* Unit-current probes keep the forward sweep sparse: most
               workspaces are still zero at most pivots. *)
            if not (F.is_zero yk) then
              for q = 0 to lc.len - 1 do
                let r = lc.idx.(q) in
                w.(r) <- F.sub w.(r) (F.mul lc.v.(q) yk)
              done
          done
      done;
      let xs = Array.init m (fun _ -> Array.make n F.zero) in
      for k = n - 1 downto 0 do
        let uc = f.u_cols.(k) in
        let pr = f.rowperm.(k) in
        (* One reciprocal per column amortised over the whole batch; the
           permuted intermediates stay in the forward workspaces. *)
        let idiag = F.div F.one uc.v.(uc.len - 1) in
        for s = 0 to m - 1 do
          let w = ws.(s) in
          let xk = F.mul w.(pr) idiag in
          xs.(s).(f.q.(k)) <- xk;
          if not (F.is_zero xk) then
            for q = 0 to uc.len - 2 do
              let i = f.rowperm.(uc.idx.(q)) in
              w.(i) <- F.sub w.(i) (F.mul uc.v.(q) xk)
            done
        done
      done;
      xs
    end

  (* Transpose solve A^T x = b from the same factor. With PAQ = LU
     (pivot-position rows, step-ordered columns), Q^T A^T = U^T L^T P: a
     forward pass on U^T (lower triangular, equation j reading b at
     column q.(j), straight off the stored U columns), a backward pass on
     the unit-triangular L^T (rows of l_cols renamed through pinv are all
     later pivots), then un-permute the rows. Needed by the Hager/Higham
     condition estimator, which alternates A^{-1} and A^{-T} products. *)
  let lu_solve_t f b =
    if Array.length b <> f.n then invalid_arg "Sparse.lu_solve_t";
    let n = f.n in
    let w = Array.make n F.zero in
    for j = 0 to n - 1 do
      let uc = f.u_cols.(j) in
      let acc = ref b.(f.q.(j)) in
      for q = 0 to uc.len - 2 do
        acc := F.sub !acc (F.mul uc.v.(q) w.(uc.idx.(q)))
      done;
      w.(j) <- F.div !acc uc.v.(uc.len - 1)
    done;
    for k = n - 1 downto 0 do
      let lc = f.l_cols.(k) in
      let acc = ref w.(k) in
      for q = 0 to lc.len - 1 do
        acc := F.sub !acc (F.mul lc.v.(q) w.(f.pinv.(lc.idx.(q))))
      done;
      w.(k) <- !acc
    done;
    let x = Array.make n F.zero in
    for k = 0 to n - 1 do
      x.(f.rowperm.(k)) <- w.(k)
    done;
    x

  let norm1 m =
    let worst = ref 0. in
    for j = 0 to m.cols - 1 do
      let s = ref 0. in
      for p = m.colptr.(j) to m.colptr.(j + 1) - 1 do
        s := !s +. F.abs m.values.(p)
      done;
      worst := Float.max !worst !s
    done;
    !worst

  (* Element growth through elimination: max |U| over max |A|. Large
     growth means the frozen pivot order is shedding digits even when no
     pivot trips the refactor tolerance. *)
  let pivot_growth a f =
    let amax = ref 0. in
    Array.iter (fun v -> amax := Float.max !amax (F.abs v)) a.values;
    let umax = ref 0. in
    Array.iter
      (fun uc ->
        for q = 0 to uc.len - 1 do
          umax := Float.max !umax (F.abs uc.v.(q))
        done)
      f.u_cols;
    if !amax = 0. then 0. else !umax /. !amax

  let residual_inf m x b =
    let ax = mulvec m x in
    let worst = ref 0. in
    Array.iteri
      (fun i v -> worst := Float.max !worst (F.abs (F.sub v b.(i))))
      ax;
    !worst
end
