open Numerics

(* Compiled per-circuit solve kernel: the only compiled solve path.

   [Ac_plan] runs the symbolic analysis once per circuit, and
   interpreting that frozen pattern point by point would allocate fresh
   column buffers and a boxed [Complex.t] value array, walk CSC metadata
   through bounds-checked lookups, and pay a per-right-hand-side copy in
   the batched solve. This module treats the symbolic analysis as a
   compilation target instead: [compile] flattens the elimination
   schedule into straight-line index arrays once per circuit, and each
   frequency point then runs a fixed factor/solve program over
   preallocated unboxed float planes — no per-point CSC traversal, no
   closures, no allocation on the hot loop.

   Bit-identity with the interpreted Scmat path is a hard contract (the
   bench and the qcheck suite assert it): every arithmetic step below
   replicates the exact float operation sequence of [Scmat.refactor] /
   [Scmat.lu_solve] / [Scmat.lu_solve_many] over the stdlib [Complex]
   field — Smith's division, [Float.hypot] magnitudes, the
   multiply-operand order of the saxpy updates, the [re = 0 && im = 0]
   sparsity skips, and the single-RHS back-substitution special case
   (divide by the diagonal rather than multiply by its reciprocal).
   Frequency points are batched: one [run] invocation advances a whole
   chunk of the sweep against one workspace, so chunk dispatch cost is
   amortised and Domain-parallel chunks write disjoint output cells.

   A probe sweep reads one component of each solution (the probed net's
   own response), so each right-hand side is substituted only over the
   pivot steps that component can see: its forward reach in L from the
   excitation's rows, and the backward reach in U of its own unknown
   (see [select]). The full solve is the all-steps case of the same
   substitution body. *)

type t = {
  plan : Ac_plan.t;        (* fallback + sampled-health path *)
  n : int;
  (* shared CSC skeleton (uncopied from the plan; read-only) *)
  colptr : int array;
  rowidx : int array;
  gvals : float array;
  cvals : float array;
  (* flattened elimination schedule *)
  colq : int array;        (* elimination step -> original column *)
  rowperm : int array;     (* pivot position -> original row *)
  pinv : int array;        (* original row -> pivot position *)
  l_ptr : int array;       (* L columns, keyed by pivot column *)
  l_idx : int array;       (* original row indices *)
  u_ptr : int array;       (* U columns: deps ascending, diagonal last *)
  u_col : int array;       (* dependency pivot position (diag slot: j) *)
  u_row : int array;       (* rowperm.(u_col), the work cell it names *)
  ur_ptr : int array;      (* U rows: pivot position p -> the later *)
  ur_col : int array;      (*   steps whose column holds a dep on p *)
  qinv : int array;        (* original column -> elimination step *)
  lnnz : int;
  unnz : int;
  full : steps;            (* every step: the full solve *)
}

(* The pivot steps one right-hand side is substituted over: forward
   steps ascending, backward steps descending. *)
and steps = {
  fwd : int array;
  bwd : int array;
}

type totals = {
  compiles : int;
  points : int;
  fallback : int;
  batch_max : int;
}

(* Registered with [Obs.Counter] so traces, --metrics summaries and the
   serve stats verb carry the same values the tests assert (warm cache
   repeat = zero compiles; one point per frequency). *)
let n_compiles = Obs.Counter.make "kernel.compiles"
let n_points = Obs.Counter.make "kernel.points"
let n_fallback = Obs.Counter.make "kernel.fallback"
let batch_max_counter = Obs.Counter.make "kernel.batch_max"

(* The fill of the last compiled kernel, as numbers: nnz(L+U) and the
   multiply-adds one refactorisation performs along the schedule. *)
let lu_nnz_gauge = Obs.Gauge.make "kernel.lu_nnz"
let lu_madds_gauge = Obs.Gauge.make "kernel.lu_madds"

(* Substitution multiply-adds per point of the last sweep's selection. *)
let solve_madds_gauge = Obs.Gauge.make "kernel.solve_madds"

let totals () =
  { compiles = Obs.Counter.value n_compiles;
    points = Obs.Counter.value n_points;
    fallback = Obs.Counter.value n_fallback;
    batch_max = Obs.Counter.value batch_max_counter }

let size t = t.n

(* Frequency points handed to one workspace invocation. Large enough to
   amortise workspace setup and chunk dispatch, small enough that the
   pool still load-balances dense sweeps across workers. *)
let chunk = 32

let compile plan =
  let t0 = Obs.Span.enter () in
  let colptr, rowidx, gvals, cvals = Ac_plan.skeleton plan in
  let sch = Scmat.schedule_of (Ac_plan.symbolic plan) in
  let n = sch.Scmat.sched_n in
  let lnnz = Array.fold_left (fun a c -> a + Array.length c) 0
      sch.Scmat.sched_l in
  let unnz = Array.fold_left (fun a c -> a + Array.length c) 0
      sch.Scmat.sched_u in
  let l_ptr = Array.make (n + 1) 0 in
  let l_idx = Array.make (Int.max 1 lnnz) 0 in
  let u_ptr = Array.make (n + 1) 0 in
  let u_col = Array.make unnz 0 in
  let u_row = Array.make unnz 0 in
  let rowperm = sch.Scmat.sched_rowperm in
  for j = 0 to n - 1 do
    let lc = sch.Scmat.sched_l.(j) in
    let lj = Array.length lc in
    Array.blit lc 0 l_idx l_ptr.(j) lj;
    l_ptr.(j + 1) <- l_ptr.(j) + lj;
    let uc = sch.Scmat.sched_u.(j) in
    let uj = Array.length uc in
    let u0 = u_ptr.(j) in
    for q = 0 to uj - 1 do
      u_col.(u0 + q) <- uc.(q);
      u_row.(u0 + q) <- rowperm.(uc.(q))
    done;
    u_ptr.(j + 1) <- u0 + uj
  done;
  (* Step j is updated by each dependency column (every U entry but the
     diagonal): one multiply-add per entry of that L column. *)
  let madds = ref 0 in
  for j = 0 to n - 1 do
    for q = u_ptr.(j) to u_ptr.(j + 1) - 2 do
      madds := !madds + l_ptr.(u_col.(q) + 1) - l_ptr.(u_col.(q))
    done
  done;
  (* U by rows: the steps whose column names pivot position p as a
     dependency, i.e. the unknowns the backward solve for step p reads. *)
  let ur_ptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    for q = u_ptr.(j) to u_ptr.(j + 1) - 2 do
      ur_ptr.(u_col.(q) + 1) <- ur_ptr.(u_col.(q) + 1) + 1
    done
  done;
  for p = 0 to n - 1 do
    ur_ptr.(p + 1) <- ur_ptr.(p + 1) + ur_ptr.(p)
  done;
  let ur_col = Array.make (ur_ptr.(n)) 0 in
  let fill = Array.sub ur_ptr 0 n in
  for j = 0 to n - 1 do
    for q = u_ptr.(j) to u_ptr.(j + 1) - 2 do
      let p = u_col.(q) in
      ur_col.(fill.(p)) <- j;
      fill.(p) <- fill.(p) + 1
    done
  done;
  let colq = sch.Scmat.sched_q in
  let qinv = Array.make n 0 in
  Array.iteri (fun j c -> qinv.(c) <- j) colq;
  Obs.Counter.incr n_compiles;
  Obs.Gauge.set lu_nnz_gauge (float_of_int (lnnz + unnz));
  Obs.Gauge.set lu_madds_gauge (float_of_int !madds);
  let k =
    { plan; n; colptr; rowidx; gvals; cvals; colq; rowperm;
      pinv = sch.Scmat.sched_pinv;
      l_ptr; l_idx; u_ptr; u_col; u_row; ur_ptr; ur_col; qinv; lnnz; unnz;
      full =
        { fwd = Array.init n Fun.id; bwd = Array.init n (fun a -> n - 1 - a) } }
  in
  Obs.Span.leave "kernel.compile"
    ~args:[ ("unknowns", n); ("lnnz", lnnz); ("unnz", unnz);
            ("madds", !madds) ]
    t0;
  k

(* ---- selections: what one sweep solves for ----

   A probe sweep reads component [comp.(j)] of solution [j] only. Two
   structural facts of the frozen schedule bound what that needs:

   - Forward: step kc of the L solve reads y_kc and, when it is nonzero,
     updates the rows of L column kc. Starting from the right-hand
     side's nonzero rows, every step outside their reach in L meets an
     exact zero and is skipped by the full solve anyway.
   - Backward: the unknown of step kc reads the unknowns of the later
     steps whose U columns hold a dependency on kc. Starting from the
     step that solves for [comp.(j)], every step outside that reach
     only writes rows the target never reads.

   Running the substitution body over just those steps, in the same
   order, therefore yields the very floats of the full solve at the
   target. The selection is built once per sweep and shared read-only
   by every chunk of it. *)

type selection = {
  sk : t;
  rhs : Complex.t array array;  (* original batch: fallback + health *)
  comp : int array;             (* component read from each solution *)
  rhs_re : float array array;   (* m x n unboxed right-hand-side planes *)
  rhs_im : float array array;
  steps : steps array;          (* per right-hand side *)
  at : int array;               (* work row holding x.(comp.(j)) *)
}

let steps_madds k st =
  Array.fold_left (fun a kc -> a + k.l_ptr.(kc + 1) - k.l_ptr.(kc)) 0 st.fwd
  + Array.fold_left (fun a kc -> a + k.u_ptr.(kc + 1) - k.u_ptr.(kc) - 1) 0
      st.bwd

let make_selection k ~rhs ~comp ~steps =
  let n = k.n in
  Array.iter
    (fun b ->
      if Array.length b <> n then invalid_arg "Kernel: rhs size")
    rhs;
  let m = Array.length rhs in
  { sk = k; rhs; comp; steps;
    rhs_re =
      Array.init m (fun s -> Array.init n (fun i -> rhs.(s).(i).Cx.re));
    rhs_im =
      Array.init m (fun s -> Array.init n (fun i -> rhs.(s).(i).Cx.im));
    at = Array.map (fun i -> k.rowperm.(k.qinv.(i))) comp }

let select k ~rhs ~sel =
  let n = k.n in
  if Array.length sel <> Array.length rhs then
    invalid_arg "Kernel.select: sel/rhs arity";
  Array.iter
    (fun i -> if i < 0 || i >= n then invalid_arg "Kernel.select: sel range")
    sel;
  (* Breadth-first reach over the steps, [buf] doubling as the queue
     and the visited list; stamps spare clearing [mark] per search. *)
  let mark = Array.make n (-1) and buf = Array.make n 0 in
  let stamp = ref 0 in
  let reach starts succ =
    incr stamp;
    let cnt = ref 0 in
    let visit kc =
      if mark.(kc) <> !stamp then begin
        mark.(kc) <- !stamp;
        buf.(!cnt) <- kc;
        incr cnt
      end
    in
    starts visit;
    let i = ref 0 in
    while !i < !cnt do
      succ buf.(!i) visit;
      incr i
    done;
    Array.sub buf 0 !cnt
  in
  let steps =
    Array.mapi
      (fun j b ->
        let fwd =
          reach
            (fun visit ->
              Array.iteri
                (fun r z ->
                  if not (z.Cx.re = 0. && z.Cx.im = 0.) then visit k.pinv.(r))
                b)
            (fun kc visit ->
              for t = k.l_ptr.(kc) to k.l_ptr.(kc + 1) - 1 do
                visit k.pinv.(k.l_idx.(t))
              done)
        in
        let bwd =
          reach
            (fun visit -> visit k.qinv.(sel.(j)))
            (fun kc visit ->
              for t = k.ur_ptr.(kc) to k.ur_ptr.(kc + 1) - 1 do
                visit k.ur_col.(t)
              done)
        in
        Array.sort Int.compare fwd;
        Array.sort (fun a b -> Int.compare b a) bwd;
        { fwd; bwd })
      rhs
  in
  let s = make_selection k ~rhs ~comp:sel ~steps in
  Obs.Gauge.set solve_madds_gauge
    (float_of_int (Array.fold_left (fun a st -> a + steps_madds k st) 0 steps));
  s

type workspace = {
  k : t;
  s : selection;
  m : int;
  w_re : float array array;     (* m x n work planes; step kc's unknown *)
  w_im : float array array;     (*   lands in row rowperm.(kc) *)
  x_re : float array;           (* factor work vector, original rows *)
  x_im : float array;
  l_vre : float array;          (* factored L values along l_idx *)
  l_vim : float array;
  u_vre : float array;          (* factored U values along u_col *)
  u_vim : float array;
  dinv_re : float array;        (* 1 / U diagonal, per step *)
  dinv_im : float array;
  q : float array;              (* cdiv result cell, avoids tuple alloc *)
}

let workspace s =
  let k = s.sk in
  let m = Array.length s.rhs in
  let n = k.n in
  let planes () = Array.init m (fun _ -> Array.make n 0.) in
  { k; s; m;
    w_re = planes (); w_im = planes ();
    x_re = Array.make n 0.; x_im = Array.make n 0.;
    l_vre = Array.make (Int.max 1 k.lnnz) 0.;
    l_vim = Array.make (Int.max 1 k.lnnz) 0.;
    u_vre = Array.make k.unnz 0.;
    u_vim = Array.make k.unnz 0.;
    dinv_re = Array.make n 0.; dinv_im = Array.make n 0.;
    q = Array.make 2 0. }

(* Smith's complex division, the exact float sequence of the stdlib
   [Complex.div]; the quotient lands in [ws.q] so the hot loop allocates
   nothing. *)
let[@inline] cdiv ws are aim bre bim =
  if Float.abs bre >= Float.abs bim then begin
    let r = bim /. bre in
    let d = bre +. (r *. bim) in
    ws.q.(0) <- (are +. (r *. aim)) /. d;
    ws.q.(1) <- (aim -. (r *. are)) /. d
  end
  else begin
    let r = bre /. bim in
    let d = bim +. (r *. bre) in
    ws.q.(0) <- ((r *. are) +. aim) /. d;
    ws.q.(1) <- ((r *. aim) -. are) /. d
  end

exception Stale

(* Numeric factorisation along the flattened schedule: the straight-line
   replay of [Scmat.refactor] with the frozen pivot order. Returns
   [false] (work vector cleared) when the frozen pivots go numerically
   stale at this frequency (where [Scmat.refactor] raises [Singular]) —
   the caller then re-pivots along the frozen column order. *)
let factor ws ~omega =
  let k = ws.k in
  let n = k.n in
  let colptr = k.colptr and rowidx = k.rowidx and colq = k.colq in
  let gvals = k.gvals and cvals = k.cvals in
  let l_ptr = k.l_ptr and l_idx = k.l_idx in
  let u_ptr = k.u_ptr and u_col = k.u_col and u_row = k.u_row in
  let x_re = ws.x_re and x_im = ws.x_im in
  let l_vre = ws.l_vre and l_vim = ws.l_vim in
  let u_vre = ws.u_vre and u_vim = ws.u_vim in
  try
    for j = 0 to n - 1 do
      (* Scatter A(:,c) = G(:,c) + jw C(:,c), c the step's column. *)
      let c = Array.unsafe_get colq j in
      for p = colptr.(c) to colptr.(c + 1) - 1 do
        let r = Array.unsafe_get rowidx p in
        Array.unsafe_set x_re r (Array.unsafe_get gvals p);
        Array.unsafe_set x_im r (omega *. Array.unsafe_get cvals p)
      done;
      let u0 = u_ptr.(j) and u1 = u_ptr.(j + 1) in
      (* Eliminate against earlier pivot columns, ascending order. *)
      for q = u0 to u1 - 2 do
        let dep = Array.unsafe_get u_col q in
        let xr = Array.unsafe_get u_row q in
        let xkre = Array.unsafe_get x_re xr in
        let xkim = Array.unsafe_get x_im xr in
        Array.unsafe_set u_vre q xkre;
        Array.unsafe_set u_vim q xkim;
        if not (xkre = 0. && xkim = 0.) then begin
          let t0 = Array.unsafe_get l_ptr dep in
          let t1 = Array.unsafe_get l_ptr (dep + 1) in
          for t = t0 to t1 - 1 do
            let r = Array.unsafe_get l_idx t in
            let lre = Array.unsafe_get l_vre t in
            let lim = Array.unsafe_get l_vim t in
            Array.unsafe_set x_re r
              (Array.unsafe_get x_re r -. ((lre *. xkre) -. (lim *. xkim)));
            Array.unsafe_set x_im r
              (Array.unsafe_get x_im r -. ((lre *. xkim) +. (lim *. xkre)))
          done
        end
      done;
      let dr = Array.unsafe_get u_row (u1 - 1) in
      let pvre = Array.unsafe_get x_re dr in
      let pvim = Array.unsafe_get x_im dr in
      let pmag = Float.hypot pvre pvim in
      if pmag = 0. || not (Float.is_finite pmag) then raise_notrace Stale;
      let t0 = l_ptr.(j) and t1 = l_ptr.(j + 1) in
      (* Stale-pivot test, identical to refactor ~pivot_tol. A cheap
         bound goes first: hypot(re, im) <= sqrt 2 max(|re|, |im|), so
         1.5 max(|re|, |im|) over the column bounds the exact colmax
         from above, and a pivot that clears the bound clears the exact
         test too. Only columns it cannot clear (and those with an
         infinite entry) pay the hypot scan; a NaN entry, which the
         bound skips, makes the exact colmax NaN and so never stale. *)
      let bound = ref 0. in
      for t = t0 to t1 - 1 do
        let r = Array.unsafe_get l_idx t in
        let a = Float.abs (Array.unsafe_get x_re r) in
        if a > !bound then bound := a;
        let a = Float.abs (Array.unsafe_get x_im r) in
        if a > !bound then bound := a
      done;
      if not (pmag >= Ac_plan.pivot_tol *. Float.max pmag (1.5 *. !bound))
      then begin
        let colmax = ref pmag in
        for t = t0 to t1 - 1 do
          let r = Array.unsafe_get l_idx t in
          colmax :=
            Float.max !colmax
              (Float.hypot (Array.unsafe_get x_re r)
                 (Array.unsafe_get x_im r))
        done;
        if pmag < Ac_plan.pivot_tol *. !colmax then raise_notrace Stale
      end;
      Array.unsafe_set u_vre (u1 - 1) pvre;
      Array.unsafe_set u_vim (u1 - 1) pvim;
      cdiv ws 1. 0. pvre pvim;
      let ipvre = ws.q.(0) and ipvim = ws.q.(1) in
      (* The same reciprocal the batched back-substitution multiplies
         by: one Smith division of 1 by this diagonal. *)
      Array.unsafe_set ws.dinv_re j ipvre;
      Array.unsafe_set ws.dinv_im j ipvim;
      for t = t0 to t1 - 1 do
        let r = Array.unsafe_get l_idx t in
        let xre = Array.unsafe_get x_re r in
        let xim = Array.unsafe_get x_im r in
        Array.unsafe_set l_vre t ((xre *. ipvre) -. (xim *. ipvim));
        Array.unsafe_set l_vim t ((xre *. ipvim) +. (xim *. ipvre))
      done;
      (* The touched work entries are exactly the frozen column pattern. *)
      for q = u0 to u1 - 1 do
        let r = Array.unsafe_get u_row q in
        Array.unsafe_set x_re r 0.;
        Array.unsafe_set x_im r 0.
      done;
      for t = t0 to t1 - 1 do
        let r = Array.unsafe_get l_idx t in
        Array.unsafe_set x_re r 0.;
        Array.unsafe_set x_im r 0.
      done
    done;
    true
  with Stale ->
    (* Partial column state stays behind; wipe the work vector whole so
       the workspace is clean for the next point of the chunk. *)
    Array.fill x_re 0 n 0.;
    Array.fill x_im 0 n 0.;
    false

(* The one substitution body: forward + backward substitution of the
   right-hand side [b] over the steps [st] against the factored planes,
   in the work planes [w]. The all-steps case is [lu_solve_many]'s
   per-RHS arithmetic, and a selection's steps replay the same floats at
   its target (see [select]). [recip] picks [lu_solve_many]'s batched
   back-substitution, which multiplies by the diagonal's reciprocal;
   without it the body is [lu_solve] (a batch of one delegates there),
   which divides by the diagonal instead — not the same float, and
   single-node sweeps go through that path. Each unknown overwrites its
   own work row, which nothing reads afterwards; every row this solve
   reads is reset from the right-hand side first, so rows left stale by
   earlier points and other step sets never leak in. *)
let subst_planes ws ~recip ~b_re ~b_im ~w_re ~w_im st =
  let k = ws.k in
  let rowperm = k.rowperm in
  let l_ptr = k.l_ptr and l_idx = k.l_idx in
  let u_ptr = k.u_ptr and u_row = k.u_row in
  let l_vre = ws.l_vre and l_vim = ws.l_vim in
  let u_vre = ws.u_vre and u_vim = ws.u_vim in
  let fwd = st.fwd and bwd = st.bwd in
  let reset steps =
    for a = 0 to Array.length steps - 1 do
      let r = Array.unsafe_get rowperm (Array.unsafe_get steps a) in
      Array.unsafe_set w_re r (Array.unsafe_get b_re r);
      Array.unsafe_set w_im r (Array.unsafe_get b_im r)
    done
  in
  reset fwd;
  reset bwd;
  (* Forward: y in pivot order over the original-row-indexed work. *)
  for a = 0 to Array.length fwd - 1 do
    let kc = Array.unsafe_get fwd a in
    let pr = Array.unsafe_get rowperm kc in
    let ykre = Array.unsafe_get w_re pr in
    let ykim = Array.unsafe_get w_im pr in
    if not (ykre = 0. && ykim = 0.) then
      for t = Array.unsafe_get l_ptr kc to Array.unsafe_get l_ptr (kc + 1) - 1
      do
        let r = Array.unsafe_get l_idx t in
        let lre = Array.unsafe_get l_vre t in
        let lim = Array.unsafe_get l_vim t in
        Array.unsafe_set w_re r
          (Array.unsafe_get w_re r -. ((lre *. ykre) -. (lim *. ykim)));
        Array.unsafe_set w_im r
          (Array.unsafe_get w_im r -. ((lre *. ykim) +. (lim *. ykre)))
      done
  done;
  (* Backward on U (diagonal stored last, entries keyed by pivot
     position through u_row); step kc solves for unknown colq.(kc). *)
  for a = 0 to Array.length bwd - 1 do
    let kc = Array.unsafe_get bwd a in
    let u0 = Array.unsafe_get u_ptr kc in
    let u1 = Array.unsafe_get u_ptr (kc + 1) in
    let pr = Array.unsafe_get rowperm kc in
    let wre = Array.unsafe_get w_re pr in
    let wim = Array.unsafe_get w_im pr in
    if recip then begin
      let idre = Array.unsafe_get ws.dinv_re kc in
      let idim = Array.unsafe_get ws.dinv_im kc in
      ws.q.(0) <- (wre *. idre) -. (wim *. idim);
      ws.q.(1) <- (wre *. idim) +. (wim *. idre)
    end
    else
      cdiv ws wre wim (Array.unsafe_get u_vre (u1 - 1))
        (Array.unsafe_get u_vim (u1 - 1));
    let xkre = ws.q.(0) and xkim = ws.q.(1) in
    Array.unsafe_set w_re pr xkre;
    Array.unsafe_set w_im pr xkim;
    if not (xkre = 0. && xkim = 0.) then
      for q = u0 to u1 - 2 do
        let i = Array.unsafe_get u_row q in
        let ure = Array.unsafe_get u_vre q in
        let uim = Array.unsafe_get u_vim q in
        Array.unsafe_set w_re i
          (Array.unsafe_get w_re i -. ((ure *. xkre) -. (uim *. xkim)));
        Array.unsafe_set w_im i
          (Array.unsafe_get w_im i -. ((ure *. xkim) +. (uim *. xkre)))
      done
  done

(* Right-hand side [j] of the workspace's selection, in its own work
   planes; a batch wider than one takes the reciprocal form. *)
let subst ws j st =
  subst_planes ws ~recip:(ws.m > 1) ~b_re:ws.s.rhs_re.(j)
    ~b_im:ws.s.rhs_im.(j) ~w_re:ws.w_re.(j) ~w_im:ws.w_im.(j) st

(* The whole solution held in work planes after an all-steps
   substitution, in natural order. *)
let solution k w_re w_im =
  let x = Array.make k.n Cx.zero in
  for kc = 0 to k.n - 1 do
    let r = k.rowperm.(kc) in
    x.(k.colq.(kc)) <- Cx.make w_re.(r) w_im.(r)
  done;
  x

let mag_inf v = Array.fold_left (fun acc z -> Float.max acc (Cx.mag z)) 0. v

(* ---- sampled health on the kernel's own factor ----

   Sampled points price the factorisation they just ran: a Hager/Higham
   rcond estimate, pivot growth and the scaled residual of the first
   solution. The single-RHS solves below are [Scmat.lu_solve] and
   [Scmat.lu_solve_t] replayed on the flattened schedule over unboxed
   work planes, so the recorded values are those the interpreted Scmat
   factor would give, without refactoring through it: at one sampled
   point in 16, that refactorisation and its boxed solves would cost as
   much as several kernel points. *)

(* A x = b: [Scmat.lu_solve], the single-RHS substitution over all
   steps in fresh planes. *)
let solve1 ws b =
  let k = ws.k in
  let w_re = Array.make k.n 0. and w_im = Array.make k.n 0. in
  subst_planes ws ~recip:false ~b_re:(Array.map (fun z -> z.Cx.re) b)
    ~b_im:(Array.map (fun z -> z.Cx.im) b) ~w_re ~w_im k.full;
  solution k w_re w_im

(* A^T x = b, Q^T A^T = U^T L^T P: forward on U^T reading b in column
   order, backward on L^T, un-permute the rows. *)
let solve1_t ws b =
  let k = ws.k in
  let n = k.n in
  let wr = Array.make n 0. and wi = Array.make n 0. in
  for j = 0 to n - 1 do
    let d = k.u_ptr.(j + 1) - 1 in
    let bj = b.(k.colq.(j)) in
    let ar = ref bj.Cx.re and ai = ref bj.Cx.im in
    for q = k.u_ptr.(j) to d - 1 do
      let c = k.u_col.(q) and ur = ws.u_vre.(q) and ui = ws.u_vim.(q) in
      ar := !ar -. ((ur *. wr.(c)) -. (ui *. wi.(c)));
      ai := !ai -. ((ur *. wi.(c)) +. (ui *. wr.(c)))
    done;
    cdiv ws !ar !ai ws.u_vre.(d) ws.u_vim.(d);
    wr.(j) <- ws.q.(0);
    wi.(j) <- ws.q.(1)
  done;
  for j = n - 1 downto 0 do
    let ar = ref wr.(j) and ai = ref wi.(j) in
    for t = k.l_ptr.(j) to k.l_ptr.(j + 1) - 1 do
      let c = k.pinv.(k.l_idx.(t)) in
      let lr = ws.l_vre.(t) and li = ws.l_vim.(t) in
      ar := !ar -. ((lr *. wr.(c)) -. (li *. wi.(c)));
      ai := !ai -. ((lr *. wi.(c)) +. (li *. wr.(c)))
    done;
    wr.(j) <- !ar;
    wi.(j) <- !ai
  done;
  let x = Array.make n Cx.zero in
  for j = 0 to n - 1 do
    x.(k.rowperm.(j)) <- Cx.make wr.(j) wi.(j)
  done;
  x

(* Record this point's health: [x] solves [b] at [omega]. *)
let point_health ?meter ws ~omega ~x ~b =
  let k = ws.k in
  let a = Ac_plan.matrix_at k.plan ~omega in
  let norm1 = Scmat.norm1 a in
  let amax = ref 0. and umax = ref 0. in
  Array.iteri
    (fun p g -> amax := Float.max !amax (Float.hypot g (omega *. k.cvals.(p))))
    k.gvals;
  for q = 0 to k.unnz - 1 do
    umax := Float.max !umax (Float.hypot ws.u_vre.(q) ws.u_vim.(q))
  done;
  let cond =
    Cond.est_1norm ~n:k.n ~norm1 ~solve:(solve1 ws) ~solve_t:(solve1_t ws)
  in
  Health.record ?meter ~rcond:(Cond.rcond cond)
    ~growth:(if !amax = 0. then 0. else !umax /. !amax)
    ~residual:
      (Health.relative_residual ~norm1
         ~residual_inf:(Scmat.residual_inf a x b)
         ~x_inf:(mag_inf x) ~b_inf:(mag_inf b))
    ()

(* One frequency point: flat factor + selected substitutions, falling
   back to fresh partial pivoting along the frozen column order
   ([Scmat.repivot]) when the frozen pivots are stale here. A sampled
   point solves its first right-hand side over every step and records
   the health of that full solution, as the dense oracle does. *)
let solve_point ?health ws ~omega ~sampled =
  let s = ws.s in
  let sampled = sampled && ws.m > 0 in
  if factor ws ~omega then begin
    for j = 0 to ws.m - 1 do
      subst ws j (if sampled && j = 0 then ws.k.full else s.steps.(j))
    done;
    if sampled then
      point_health ?meter:health ws ~omega
        ~x:(solution ws.k ws.w_re.(0) ws.w_im.(0)) ~b:s.rhs.(0);
    `Flat
  end
  else begin
    Obs.Counter.incr n_fallback;
    let a = Ac_plan.matrix_at ws.k.plan ~omega in
    let f = Scmat.repivot (Ac_plan.symbolic ws.k.plan) a in
    let xs = Scmat.lu_solve_many f s.rhs in
    if sampled then begin
      let rcond = Cond.rcond (Cond.sparse a f) in
      let growth = Scmat.pivot_growth a f in
      let residual =
        Health.relative_residual ~norm1:(Scmat.norm1 a)
          ~residual_inf:(Scmat.residual_inf a xs.(0) s.rhs.(0))
          ~x_inf:(mag_inf xs.(0)) ~b_inf:(mag_inf s.rhs.(0))
      in
      Health.record ?meter:health ~rcond ~growth ~residual ()
    end;
    `Fallback xs
  end

let run ?health ws ~freqs ~lo ~hi ~outs =
  let s = ws.s in
  if Array.length outs <> ws.m then invalid_arg "Kernel.run: outs arity";
  Obs.Counter.add n_points (hi - lo);
  Obs.Counter.record_max batch_max_counter (hi - lo);
  for fk = lo to hi - 1 do
    let omega = 2. *. Float.pi *. freqs.(fk) in
    match solve_point ?health ws ~omega ~sampled:(Health.sampled fk) with
    | `Flat ->
      for j = 0 to ws.m - 1 do
        let r = s.at.(j) in
        outs.(j).(fk) <- Cx.make ws.w_re.(j).(r) ws.w_im.(j).(r)
      done
    | `Fallback xs ->
      for j = 0 to ws.m - 1 do
        outs.(j).(fk) <- xs.(j).(s.comp.(j))
      done
  done

let solve_many ?health ?(point = 0) t ~omega bs =
  let m = Array.length bs in
  (* No component is picked: the caller reads whole solutions. *)
  let ws =
    workspace
      (make_selection t ~rhs:bs ~comp:[||] ~steps:(Array.make m t.full))
  in
  Obs.Counter.add n_points 1;
  Obs.Counter.record_max batch_max_counter 1;
  match solve_point ?health ws ~omega ~sampled:(Health.sampled point) with
  | `Flat -> Array.init m (fun j -> solution t ws.w_re.(j) ws.w_im.(j))
  | `Fallback xs -> xs
