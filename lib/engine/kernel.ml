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
   amortised and Domain-parallel chunks write disjoint output cells. *)

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
  lnnz : int;
  unnz : int;
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
  Obs.Counter.incr n_compiles;
  Obs.Gauge.set lu_nnz_gauge (float_of_int (lnnz + unnz));
  Obs.Gauge.set lu_madds_gauge (float_of_int !madds);
  let k =
    { plan; n; colptr; rowidx; gvals; cvals; colq = sch.Scmat.sched_q;
      rowperm;
      pinv = sch.Scmat.sched_pinv;
      l_ptr; l_idx; u_ptr; u_col; u_row; lnnz; unnz }
  in
  Obs.Span.leave "kernel.compile"
    ~args:[ ("unknowns", n); ("lnnz", lnnz); ("unnz", unnz);
            ("madds", !madds) ]
    t0;
  k

type workspace = {
  k : t;
  rhs : Complex.t array array;  (* original batch: fallback + health *)
  m : int;
  rhs_re : float array array;   (* m x n unboxed right-hand-side planes *)
  rhs_im : float array array;
  w_re : float array array;     (* forward/backward work planes *)
  w_im : float array array;
  s_re : float array array;     (* solution planes, natural indexing *)
  s_im : float array array;
  x_re : float array;           (* factor work vector, original rows *)
  x_im : float array;
  l_vre : float array;          (* factored L values along l_idx *)
  l_vim : float array;
  u_vre : float array;          (* factored U values along u_col *)
  u_vim : float array;
  q : float array;              (* cdiv result cell, avoids tuple alloc *)
}

let workspace k ~rhs =
  let m = Array.length rhs in
  let n = k.n in
  Array.iter
    (fun b ->
      if Array.length b <> n then invalid_arg "Kernel.workspace: rhs size")
    rhs;
  let planes () = Array.init m (fun _ -> Array.make n 0.) in
  { k; rhs; m;
    rhs_re =
      Array.init m (fun s -> Array.init n (fun i -> rhs.(s).(i).Cx.re));
    rhs_im =
      Array.init m (fun s -> Array.init n (fun i -> rhs.(s).(i).Cx.im));
    w_re = planes (); w_im = planes ();
    s_re = planes (); s_im = planes ();
    x_re = Array.make n 0.; x_im = Array.make n 0.;
    l_vre = Array.make (Int.max 1 k.lnnz) 0.;
    l_vim = Array.make (Int.max 1 k.lnnz) 0.;
    u_vre = Array.make k.unnz 0.;
    u_vim = Array.make k.unnz 0.;
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
      (* Stale-pivot test, identical to refactor ~pivot_tol. *)
      let colmax = ref pmag in
      for t = t0 to t1 - 1 do
        let r = Array.unsafe_get l_idx t in
        colmax :=
          Float.max !colmax
            (Float.hypot (Array.unsafe_get x_re r) (Array.unsafe_get x_im r))
      done;
      if pmag < Ac_plan.pivot_tol *. !colmax then raise_notrace Stale;
      Array.unsafe_set u_vre (u1 - 1) pvre;
      Array.unsafe_set u_vim (u1 - 1) pvim;
      cdiv ws 1. 0. pvre pvim;
      let ipvre = ws.q.(0) and ipvim = ws.q.(1) in
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

(* Forward + backward substitution for the whole batch against the
   factored planes. Mirrors [lu_solve_many] — including its single-RHS
   delegation to [lu_solve], whose back-substitution divides by the
   diagonal instead of multiplying by a precomputed reciprocal (not the
   same float, and single-node sweeps go through that path). *)
let solve_batch ws =
  let k = ws.k in
  let n = k.n and m = ws.m in
  let rowperm = k.rowperm and colq = k.colq in
  let l_ptr = k.l_ptr and l_idx = k.l_idx in
  let u_ptr = k.u_ptr and u_row = k.u_row in
  let l_vre = ws.l_vre and l_vim = ws.l_vim in
  let u_vre = ws.u_vre and u_vim = ws.u_vim in
  for s = 0 to m - 1 do
    Array.blit ws.rhs_re.(s) 0 ws.w_re.(s) 0 n;
    Array.blit ws.rhs_im.(s) 0 ws.w_im.(s) 0 n
  done;
  (* Forward: y in pivot order over the original-row-indexed work. *)
  for kc = 0 to n - 1 do
    let pr = Array.unsafe_get rowperm kc in
    let t0 = Array.unsafe_get l_ptr kc in
    let t1 = Array.unsafe_get l_ptr (kc + 1) in
    for s = 0 to m - 1 do
      let w_re = Array.unsafe_get ws.w_re s in
      let w_im = Array.unsafe_get ws.w_im s in
      let ykre = Array.unsafe_get w_re pr in
      let ykim = Array.unsafe_get w_im pr in
      if not (ykre = 0. && ykim = 0.) then
        for t = t0 to t1 - 1 do
          let r = Array.unsafe_get l_idx t in
          let lre = Array.unsafe_get l_vre t in
          let lim = Array.unsafe_get l_vim t in
          Array.unsafe_set w_re r
            (Array.unsafe_get w_re r -. ((lre *. ykre) -. (lim *. ykim)));
          Array.unsafe_set w_im r
            (Array.unsafe_get w_im r -. ((lre *. ykim) +. (lim *. ykre)))
        done
    done
  done;
  (* Backward on U (diagonal stored last, entries keyed by pivot
     position through u_row); step kc solves for unknown colq.(kc). *)
  for kc = n - 1 downto 0 do
    let u0 = Array.unsafe_get u_ptr kc in
    let u1 = Array.unsafe_get u_ptr (kc + 1) in
    let dre = Array.unsafe_get u_vre (u1 - 1) in
    let dim = Array.unsafe_get u_vim (u1 - 1) in
    let pr = Array.unsafe_get rowperm kc in
    let xc = Array.unsafe_get colq kc in
    if m > 1 then begin
      (* One reciprocal per column amortised over the batch. *)
      cdiv ws 1. 0. dre dim;
      let idre = ws.q.(0) and idim = ws.q.(1) in
      for s = 0 to m - 1 do
        let w_re = Array.unsafe_get ws.w_re s in
        let w_im = Array.unsafe_get ws.w_im s in
        let wre = Array.unsafe_get w_re pr in
        let wim = Array.unsafe_get w_im pr in
        let xkre = (wre *. idre) -. (wim *. idim) in
        let xkim = (wre *. idim) +. (wim *. idre) in
        (Array.unsafe_get ws.s_re s).(xc) <- xkre;
        (Array.unsafe_get ws.s_im s).(xc) <- xkim;
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
    end
    else if m = 1 then begin
      let w_re = ws.w_re.(0) and w_im = ws.w_im.(0) in
      cdiv ws (Array.unsafe_get w_re pr) (Array.unsafe_get w_im pr) dre dim;
      let xkre = ws.q.(0) and xkim = ws.q.(1) in
      ws.s_re.(0).(xc) <- xkre;
      ws.s_im.(0).(xc) <- xkim;
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
    end
  done

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

(* A x = b: forward on L in pivot order, backward on U. *)
let solve1 ws b =
  let k = ws.k in
  let n = k.n in
  let wr = Array.map (fun z -> z.Cx.re) b
  and wi = Array.map (fun z -> z.Cx.im) b in
  for j = 0 to n - 1 do
    let pr = k.rowperm.(j) in
    let yr = wr.(pr) and yi = wi.(pr) in
    if not (yr = 0. && yi = 0.) then
      for t = k.l_ptr.(j) to k.l_ptr.(j + 1) - 1 do
        let r = k.l_idx.(t) and lr = ws.l_vre.(t) and li = ws.l_vim.(t) in
        wr.(r) <- wr.(r) -. ((lr *. yr) -. (li *. yi));
        wi.(r) <- wi.(r) -. ((lr *. yi) +. (li *. yr))
      done
  done;
  let x = Array.make n Cx.zero in
  for j = n - 1 downto 0 do
    let d = k.u_ptr.(j + 1) - 1 in
    let pr = k.rowperm.(j) in
    cdiv ws wr.(pr) wi.(pr) ws.u_vre.(d) ws.u_vim.(d);
    let xr = ws.q.(0) and xi = ws.q.(1) in
    x.(k.colq.(j)) <- Cx.make xr xi;
    if not (xr = 0. && xi = 0.) then
      for q = k.u_ptr.(j) to d - 1 do
        let i = k.u_row.(q) and ur = ws.u_vre.(q) and ui = ws.u_vim.(q) in
        wr.(i) <- wr.(i) -. ((ur *. xr) -. (ui *. xi));
        wi.(i) <- wi.(i) -. ((ur *. xi) +. (ui *. xr))
      done
  done;
  x

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

(* One frequency point: flat factor + batched substitution, falling back
   to fresh partial pivoting along the frozen column order
   ([Scmat.repivot]) when the frozen pivots are stale here. Health is
   sampled on the same [Health.tick] cadence as the dense oracle. *)
let solve_point ?health ws ~omega =
  if factor ws ~omega then begin
    solve_batch ws;
    if ws.m > 0 && Health.tick () then begin
      let x =
        Array.init ws.k.n (fun i -> Cx.make ws.s_re.(0).(i) ws.s_im.(0).(i))
      in
      point_health ?meter:health ws ~omega ~x ~b:ws.rhs.(0)
    end;
    `Flat
  end
  else begin
    Obs.Counter.incr n_fallback;
    let a = Ac_plan.matrix_at ws.k.plan ~omega in
    let f = Scmat.repivot (Ac_plan.symbolic ws.k.plan) a in
    let xs = Scmat.lu_solve_many f ws.rhs in
    if ws.m > 0 && Health.tick () then begin
      let rcond = Cond.rcond (Cond.sparse a f) in
      let growth = Scmat.pivot_growth a f in
      let residual =
        Health.relative_residual ~norm1:(Scmat.norm1 a)
          ~residual_inf:(Scmat.residual_inf a xs.(0) ws.rhs.(0))
          ~x_inf:(mag_inf xs.(0)) ~b_inf:(mag_inf ws.rhs.(0))
      in
      Health.record ?meter:health ~rcond ~growth ~residual ()
    end;
    `Fallback xs
  end

let run ?health ws ~freqs ~lo ~hi ~sel ~outs =
  if Array.length sel <> ws.m || Array.length outs <> ws.m then
    invalid_arg "Kernel.run: sel/outs arity";
  Obs.Counter.add n_points (hi - lo);
  Obs.Counter.record_max batch_max_counter (hi - lo);
  for fk = lo to hi - 1 do
    let omega = 2. *. Float.pi *. freqs.(fk) in
    match solve_point ?health ws ~omega with
    | `Flat ->
      for q = 0 to ws.m - 1 do
        let i = sel.(q) in
        outs.(q).(fk) <- Cx.make ws.s_re.(q).(i) ws.s_im.(q).(i)
      done
    | `Fallback xs ->
      for q = 0 to ws.m - 1 do
        outs.(q).(fk) <- xs.(q).(sel.(q))
      done
  done

let solve_many ?health t ~omega bs =
  let ws = workspace t ~rhs:bs in
  Obs.Counter.add n_points 1;
  Obs.Counter.record_max batch_max_counter 1;
  match solve_point ?health ws ~omega with
  | `Flat ->
    Array.init ws.m (fun s ->
        Array.init t.n (fun i -> Cx.make ws.s_re.(s).(i) ws.s_im.(s).(i)))
  | `Fallback xs -> xs
