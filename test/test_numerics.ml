(* Numerics substrate: linear algebra, polynomials, derivatives, peaks. *)

open Numerics

let check_close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9g, got %.9g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

(* ---------- engineering notation ---------- *)

let test_engnum_parse () =
  let cases =
    [ ("1k", 1e3); ("2.2k", 2.2e3); ("10meg", 1e7); ("0.5u", 0.5e-6);
      ("3p", 3e-12); ("1e-12", 1e-12); ("-4.7n", -4.7e-9); ("100", 100.);
      ("1.5K", 1.5e3); ("10kohm", 1e4); ("2m", 2e-3); ("3f", 3e-15);
      ("1g", 1e9); ("0.1", 0.1); ("5e3", 5e3); ("1E6", 1e6) ]
  in
  List.iter
    (fun (s, v) ->
      match Engnum.parse s with
      | Some got -> check_close ("parse " ^ s) v got
      | None -> Alcotest.failf "parse %S returned None" s)
    cases;
  Alcotest.(check (option (float 0.))) "garbage" None (Engnum.parse "abc");
  Alcotest.(check (option (float 0.))) "empty" None (Engnum.parse "")

let test_engnum_roundtrip () =
  List.iter
    (fun v ->
      let s = Engnum.format v in
      match Engnum.parse s with
      | Some got -> check_close ~tol:1e-3 ("roundtrip " ^ s) v got
      | None -> Alcotest.failf "roundtrip: %S unparseable" s)
    [ 1e3; 3.3e-12; 2.5e6; -4.7e-9; 0.15; 1e9; 123.45; 1e-15 ]

(* ---------- dense LU ---------- *)

let test_lu_known () =
  let a = Rmat.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Rmat.solve a [| 5.; 10. |] in
  check_close "x0" 1. x.(0);
  check_close "x1" 3. x.(1)

let test_lu_pivoting () =
  (* Leading zero forces a row swap. *)
  let a = Rmat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Rmat.solve a [| 2.; 3. |] in
  check_close "x0" 3. x.(0);
  check_close "x1" 2. x.(1)

let test_lu_singular () =
  let a = Rmat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" (Dense.Singular 1) (fun () ->
      ignore (Rmat.solve a [| 1.; 1. |]))

let prop_lu_random =
  QCheck.Test.make ~name:"LU solves random diagonally-dominant systems"
    ~count:200
    QCheck.(pair (int_range 1 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n |] in
      let a =
        Rmat.init n n (fun i j ->
            let v = Random.State.float st 2. -. 1. in
            if i = j then v +. (4. *. float_of_int n) else v)
      in
      let b = Array.init n (fun _ -> Random.State.float st 10. -. 5.) in
      let x = Rmat.solve a b in
      Rmat.residual_inf a x b < 1e-9)

let prop_complex_lu_random =
  QCheck.Test.make ~name:"complex LU solves random systems" ~count:200
    QCheck.(pair (int_range 1 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 7 |] in
      let rnd () = Random.State.float st 2. -. 1. in
      let a =
        Cmat.init n n (fun i j ->
            let z = { Complex.re = rnd (); im = rnd () } in
            if i = j then Complex.add z { Complex.re = 4. *. float_of_int n; im = 0. }
            else z)
      in
      let b = Array.init n (fun _ -> { Complex.re = rnd (); im = rnd () }) in
      let x = Cmat.solve a b in
      Cmat.residual_inf a x b < 1e-9)

(* ---------- sparse LU ---------- *)

let random_sparse_system st n =
  (* Diagonally dominant with ~4 off-diagonal entries per column. *)
  let triplets = ref [] in
  for j = 0 to n - 1 do
    triplets := (j, j, 8. +. Random.State.float st 4.) :: !triplets;
    for _ = 1 to 4 do
      let i = Random.State.int st n in
      if i <> j then
        triplets := (i, j, Random.State.float st 2. -. 1.) :: !triplets
    done
  done;
  !triplets

let prop_sparse_lu_random =
  QCheck.Test.make ~name:"sparse LU solves random systems" ~count:100
    QCheck.(pair (int_range 2 60) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 31 |] in
      let triplets = random_sparse_system st n in
      let a = Srmat.of_triplets ~rows:n ~cols:n triplets in
      let b = Array.init n (fun _ -> Random.State.float st 10. -. 5.) in
      let x = Srmat.lu_solve (Srmat.lu_factor a) b in
      Srmat.residual_inf a x b < 1e-9)

let prop_sparse_matches_dense =
  QCheck.Test.make ~name:"sparse and dense LU agree" ~count:60
    QCheck.(pair (int_range 2 25) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 47 |] in
      let triplets = random_sparse_system st n in
      let a_sp = Srmat.of_triplets ~rows:n ~cols:n triplets in
      let a_d = Rmat.create n n in
      List.iter (fun (i, j, v) -> Rmat.add_to a_d i j v) triplets;
      let b = Array.init n (fun _ -> Random.State.float st 2.) in
      let xs = Srmat.lu_solve (Srmat.lu_factor a_sp) b in
      let xd = Rmat.solve a_d b in
      Vec.all_close ~tol:1e-9 xs xd)

let prop_sparse_complex =
  QCheck.Test.make ~name:"sparse complex LU" ~count:60
    QCheck.(pair (int_range 2 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 53 |] in
      let rnd () = Random.State.float st 2. -. 1. in
      let triplets = ref [] in
      for j = 0 to n - 1 do
        triplets :=
          (j, j, { Complex.re = 8. +. Random.State.float st 2.; im = rnd () })
          :: !triplets;
        for _ = 1 to 3 do
          let i = Random.State.int st n in
          if i <> j then
            triplets := (i, j, { Complex.re = rnd (); im = rnd () })
              :: !triplets
        done
      done;
      let a = Scmat.of_triplets ~rows:n ~cols:n !triplets in
      let b = Array.init n (fun _ -> { Complex.re = rnd (); im = rnd () }) in
      let x = Scmat.lu_solve (Scmat.lu_factor a) b in
      Scmat.residual_inf a x b < 1e-9)

let test_sparse_needs_pivoting () =
  (* Zero diagonal forces row exchanges. *)
  let a =
    Srmat.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.); (1, 0, 1.) ]
  in
  let x = Srmat.lu_solve (Srmat.lu_factor a) [| 2.; 3. |] in
  check_close "x0" 3. x.(0);
  check_close "x1" 2. x.(1)

let test_sparse_singular () =
  let a =
    Srmat.of_triplets ~rows:2 ~cols:2
      [ (0, 0, 1.); (0, 1, 2.); (1, 0, 2.); (1, 1, 4.) ]
  in
  Alcotest.(check bool) "singular detected" true
    (try ignore (Srmat.lu_factor a); false with Sparse.Singular _ -> true)

let test_sparse_duplicates_summed () =
  let a =
    Srmat.of_triplets ~rows:1 ~cols:1 [ (0, 0, 1.); (0, 0, 2.) ]
  in
  Alcotest.(check int) "one entry" 1 (Srmat.nnz a);
  let x = Srmat.lu_solve (Srmat.lu_factor a) [| 6. |] in
  check_close "summed" 2. x.(0)

(* ---------- symbolic reuse / numeric refactorisation ---------- *)

(* Random MNA-like G + jwC skeleton: diagonally dominant conductances
   (resistors and gm diagonals), VCCS-style asymmetric off-diagonal
   couplings, and reactive entries sharing the same sparsity pattern. *)
let random_gc_skeleton st n =
  let tbl = Hashtbl.create (n * 6) in
  let add i j g c =
    let g0, c0 =
      match Hashtbl.find_opt tbl (i, j) with
      | Some gc -> gc
      | None -> (0., 0.)
    in
    Hashtbl.replace tbl (i, j) (g0 +. g, c0 +. c)
  in
  let rnd () = Random.State.float st 2. -. 1. in
  for j = 0 to n - 1 do
    (* Conductance + capacitance to ground on every node. *)
    add j j (6. +. Random.State.float st 4.) (1e-9 *. Random.State.float st 1.);
    for _ = 1 to 3 do
      let i = Random.State.int st n in
      if i <> j then begin
        (* VCCS-like stamp: off-diagonal conductance with its diagonal
           return, plus a coupling capacitor on the same entries. *)
        let g = rnd () and c = 1e-10 *. Random.State.float st 1. in
        add i j (-.g) (-.c);
        add i i g c
      end
    done
  done;
  (* Flatten to CSC sorted by (column, row). *)
  let entries =
    Hashtbl.fold (fun (i, j) (g, c) acc -> ((j, i), (g, c)) :: acc) tbl []
    |> List.sort compare
  in
  let nnz = List.length entries in
  let colptr = Array.make (n + 1) 0 in
  let rowidx = Array.make nnz 0 in
  let gvals = Array.make nnz 0. in
  let cvals = Array.make nnz 0. in
  List.iteri
    (fun p ((j, i), (g, c)) ->
      colptr.(j + 1) <- colptr.(j + 1) + 1;
      rowidx.(p) <- i;
      gvals.(p) <- g;
      cvals.(p) <- c)
    entries;
  for j = 0 to n - 1 do
    colptr.(j + 1) <- colptr.(j) + colptr.(j + 1)
  done;
  (colptr, rowidx, gvals, cvals)

let prop_symbolic_reuse =
  QCheck.Test.make
    ~name:"one symbolic analysis serves a sweep (refactor + multi-RHS)"
    ~count:60
    QCheck.(pair (int_range 3 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 71 |] in
      let colptr, rowidx, gvals, cvals = random_gc_skeleton st n in
      let nnz = Array.length rowidx in
      let at omega =
        Scmat.of_csc ~rows:n ~cols:n ~colptr ~rowidx
          (Array.init nnz (fun p -> Complex.{ re = gvals.(p);
                                              im = omega *. cvals.(p) }))
      in
      (* Frequencies spanning six decades around the analysis point. *)
      let omegas = [| 2e3; 6.3e4; 2e6; 6.3e7; 2e9 |] in
      let sym, _ = Scmat.analyze (at 2e6) in
      let rnd () = Random.State.float st 2. -. 1. in
      let bs =
        Array.init 3 (fun _ ->
            Array.init n (fun _ -> Complex.{ re = rnd (); im = rnd () }))
      in
      Array.for_all
        (fun omega ->
          let a = at omega in
          (* Numeric-only replay along the frozen pattern... *)
          let f = Scmat.refactor ~pivot_tol:1e-6 sym a in
          let xs = Scmat.lu_solve_many f bs in
          (* ...must agree with a fresh dense LU at the same point. *)
          let d = Cmat.create n n in
          for j = 0 to n - 1 do
            for p = colptr.(j) to colptr.(j + 1) - 1 do
              Cmat.add_to d rowidx.(p) j
                Complex.{ re = gvals.(p); im = omega *. cvals.(p) }
            done
          done;
          Array.for_all2
            (fun x b ->
              let xd = Cmat.solve d b in
              Scmat.residual_inf a x b < 1e-9
              && Array.for_all2 (Cx.close ~tol:1e-7) x xd)
            xs bs)
        omegas)

(* The fill-reducing column order is a permutation of the columns, the
   same on every run over the same pattern, and fresh partial pivoting
   along it (the kernel's stale-pivot fallback) still solves the
   system. *)
let prop_column_order =
  QCheck.Test.make
    ~name:"column order: deterministic permutation, repivot solves"
    ~count:60
    QCheck.(pair (int_range 1 40) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 97 |] in
      let colptr, rowidx, gvals, cvals = random_gc_skeleton st n in
      let a =
        Scmat.of_csc ~rows:n ~cols:n ~colptr ~rowidx
          (Array.mapi
             (fun p g -> Complex.{ re = g; im = 2e6 *. cvals.(p) })
             gvals)
      in
      let sym, _ = Scmat.analyze a in
      let q = (Scmat.schedule_of sym).Scmat.sched_q in
      let again = (Scmat.schedule_of (fst (Scmat.analyze a))).Scmat.sched_q in
      let sorted = Array.copy q in
      Array.sort compare sorted;
      let b =
        Array.init n (fun k -> Complex.{ re = float_of_int k; im = 1. })
      in
      sorted = Array.init n Fun.id
      && q = again
      && Scmat.residual_inf a (Scmat.lu_solve (Scmat.repivot sym a) b) b
         < 1e-9)

(* ---------- condition estimation ---------- *)

let random_dense_complex st n =
  let rnd () = Random.State.float st 2. -. 1. in
  Cmat.init n n (fun i j ->
      let z = { Complex.re = rnd (); im = rnd () } in
      if i = j then
        Complex.add z { Complex.re = 4. *. float_of_int n; im = 0. }
      else z)

let prop_dense_transpose_solve =
  QCheck.Test.make ~name:"dense lu_solve_t solves the transposed system"
    ~count:100
    QCheck.(pair (int_range 1 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 83 |] in
      let rnd () = Random.State.float st 2. -. 1. in
      let a = random_dense_complex st n in
      let b = Array.init n (fun _ -> { Complex.re = rnd (); im = rnd () }) in
      let x = Cmat.lu_solve_t (Cmat.lu_factor a) b in
      (* Residual of A^T x = b, formed against the transposed entries. *)
      let resid = ref 0. in
      for i = 0 to n - 1 do
        let acc = ref (Complex.neg b.(i)) in
        for j = 0 to n - 1 do
          acc := Complex.add !acc (Complex.mul (Cmat.get a j i) x.(j))
        done;
        resid := Float.max !resid (Cx.mag !acc)
      done;
      !resid < 1e-9)

let prop_sparse_transpose_solve =
  QCheck.Test.make ~name:"sparse lu_solve_t matches dense transpose solve"
    ~count:60
    QCheck.(pair (int_range 2 30) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 89 |] in
      let rnd () = Random.State.float st 2. -. 1. in
      let triplets = ref [] in
      for j = 0 to n - 1 do
        triplets :=
          (j, j, { Complex.re = 8. +. Random.State.float st 2.; im = rnd () })
          :: !triplets;
        for _ = 1 to 3 do
          let i = Random.State.int st n in
          if i <> j then
            triplets := (i, j, { Complex.re = rnd (); im = rnd () })
              :: !triplets
        done
      done;
      let a = Scmat.of_triplets ~rows:n ~cols:n !triplets in
      let d = Cmat.create n n in
      List.iter (fun (i, j, v) -> Cmat.add_to d j i v) !triplets;
      let b = Array.init n (fun _ -> { Complex.re = rnd (); im = rnd () }) in
      let xs = Scmat.lu_solve_t (Scmat.lu_factor a) b in
      let xd = Cmat.solve d b in
      Array.for_all2 (Cx.close ~tol:1e-8) xs xd)

(* True 1-norm condition number via the explicit inverse: solve for each
   unit vector and take the worst column sum. O(n^3) but fine at test
   sizes; the Hager/Higham estimate must land within a small factor. *)
let true_cond_1norm a f n =
  let inv_norm = ref 0. in
  for j = 0 to n - 1 do
    let e =
      Array.init n (fun i -> if i = j then Complex.one else Complex.zero)
    in
    let col = Cmat.lu_solve f e in
    let s = Array.fold_left (fun acc z -> acc +. Cx.mag z) 0. col in
    inv_norm := Float.max !inv_norm s
  done;
  Cmat.norm1 a *. !inv_norm

let prop_cond_estimate =
  QCheck.Test.make
    ~name:"Hager estimate within a small factor of the true condition"
    ~count:100
    QCheck.(pair (int_range 2 15) (int_range 0 10_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 97 |] in
      let a = random_dense_complex st n in
      let f = Cmat.lu_factor a in
      let est = Cond.dense a f in
      let true_cond = true_cond_1norm a f n in
      (* The estimate is a lower bound (up to roundoff) and in practice
         lands within a modest factor; /10 keeps the floor loose. *)
      est <= true_cond *. 1.0001 && est >= true_cond /. 10.)

let test_cond_ill_conditioned () =
  (* A nearly-singular system: one row scaled down by 1e-12 pushes the
     condition number past 1e11, so rcond must collapse accordingly. *)
  let n = 4 in
  let a =
    Cmat.init n n (fun i j ->
        let base = if i = j then 5. else 1. /. float_of_int (i + j + 2) in
        let s = if i = n - 1 then 1e-12 else 1. in
        { Complex.re = base *. s; im = 0. })
  in
  let f = Cmat.lu_factor a in
  let rc = Cond.rcond (Cond.dense a f) in
  Alcotest.(check bool)
    (Printf.sprintf "rcond %.3g below 1e-9" rc)
    true
    (rc > 0. && rc < 1e-9)

let test_rcond_edge_cases () =
  check_close "rcond of 0" 0. (Cond.rcond 0.);
  check_close "rcond of -1" 0. (Cond.rcond (-1.));
  check_close "rcond of nan" 0. (Cond.rcond Float.nan);
  check_close "rcond of inf" 0. (Cond.rcond Float.infinity);
  check_close "rcond of 1e6" 1e-6 (Cond.rcond 1e6)

(* ---------- polynomials ---------- *)

let test_poly_eval () =
  (* p(s) = 1 + 2s + 3s^2 at s = 2 -> 17 *)
  let p = Poly.of_real_coeffs [| 1.; 2.; 3. |] in
  let v = Poly.eval p (Cx.of_float 2.) in
  check_close "eval" 17. v.Complex.re;
  check_close "eval imag" 0. v.Complex.im

let test_poly_arith () =
  let a = Poly.of_real_coeffs [| 1.; 1. |] in
  (* (1+s)^2 = 1 + 2s + s^2 *)
  let sq = Poly.mul a a in
  Alcotest.(check bool) "square" true
    (Poly.equal sq (Poly.of_real_coeffs [| 1.; 2.; 1. |]));
  let d = Poly.derivative sq in
  Alcotest.(check bool) "derivative" true
    (Poly.equal d (Poly.of_real_coeffs [| 2.; 2. |]))

let test_poly_roots_known () =
  (* roots of (s-1)(s-2)(s-3) *)
  let p = Poly.from_roots (List.map Cx.of_float [ 1.; 2.; 3. ]) in
  let roots = Poly.roots p |> List.map (fun z -> z.Complex.re)
              |> List.sort compare in
  match roots with
  | [ a; b; c ] ->
    check_close ~tol:1e-6 "root1" 1. a;
    check_close ~tol:1e-6 "root2" 2. b;
    check_close ~tol:1e-6 "root3" 3. c
  | _ -> Alcotest.fail "expected 3 roots"

let prop_poly_roots =
  QCheck.Test.make ~name:"roots of polynomials built from random roots"
    ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 13 |] in
      (* Random complex roots in an annulus, kept apart for conditioning. *)
      let rec gen acc k =
        if k = 0 then acc
        else begin
          let z =
            Cx.polar
              (0.5 +. Random.State.float st 2.)
              (Random.State.float st (2. *. Float.pi))
          in
          if List.exists (fun w -> Cx.mag (Complex.sub z w) < 0.3) acc then
            gen acc k
          else gen (z :: acc) (k - 1)
        end
      in
      let roots = gen [] n in
      let p = Poly.from_roots roots in
      let found = Poly.roots p in
      List.for_all
        (fun r ->
          List.exists (fun f -> Cx.mag (Complex.sub r f) < 1e-4) found)
        roots)

(* ---------- derivatives & stability function ---------- *)

let test_deriv_polynomial_exact () =
  (* d/dx of x^2 is exact for a 3-point parabola stencil. *)
  let x = Vec.linspace 1. 5. 9 in
  let y = Array.map (fun v -> v *. v) x in
  let d = Deriv.first ~x ~y in
  Array.iteri (fun k xv -> check_close "d(x^2)/dx" (2. *. xv) d.(k)) x;
  let d2 = Deriv.second ~x ~y in
  Array.iter (fun v -> check_close "d2(x^2)/dx2" 2. v) d2

let test_deriv_nonuniform () =
  let x = [| 1.; 1.5; 2.7; 3.1; 4.9; 5.0 |] in
  let y = Array.map (fun v -> (3. *. v *. v) -. (2. *. v) +. 7.) x in
  let d = Deriv.first ~x ~y in
  Array.iteri
    (fun k xv -> check_close "nonuniform parabola" ((6. *. xv) -. 2.) d.(k))
    x

let second_order_mag ~zeta x =
  (* |T| of eq 1.2 at normalised frequency x = w/wn. *)
  1. /. sqrt ((((1. -. (x *. x)) ** 2.) +. ((2. *. zeta *. x) ** 2.)))

let test_stability_function_peak () =
  (* Eq 1.4: P(wn) = -1/zeta^2 for the analytic second-order response. *)
  List.iter
    (fun zeta ->
      let freq = Vec.logspace 0.01 100. 2001 in
      let mag = Array.map (fun x -> second_order_mag ~zeta x) freq in
      let p = Deriv.stability_function ~freq ~mag in
      let i = Vec.argmin p in
      check_close ~tol:2e-2
        (Printf.sprintf "peak value (zeta=%g)" zeta)
        (-1. /. (zeta *. zeta))
        p.(i);
      check_close ~tol:2e-2 (Printf.sprintf "peak freq (zeta=%g)" zeta) 1.
        freq.(i))
    [ 0.1; 0.2; 0.3; 0.5; 0.7 ]

let test_stability_two_pass_agrees () =
  let zeta = 0.25 in
  let freq = Vec.logspace 0.01 100. 1501 in
  let mag = Array.map (fun x -> second_order_mag ~zeta x) freq in
  let a = Deriv.stability_function ~freq ~mag in
  let b = Deriv.stability_function_two_pass ~freq ~mag in
  (* The two discretisations differ at second order in the grid spacing;
     at 150 points/decade they agree to within about 1 percent. End points
     use one-sided stencils, so compare the interior. *)
  for k = 2 to Array.length a - 3 do
    check_close ~tol:2e-2 "two formulations agree" a.(k) b.(k)
  done

let prop_stability_eq14 =
  QCheck.Test.make
    ~name:"stability plot peak = -1/zeta^2 for random damping" ~count:60
    QCheck.(float_range 0.08 0.9)
    (fun zeta ->
      let freq = Vec.logspace 0.005 200. 3001 in
      let mag = Array.map (fun x -> second_order_mag ~zeta x) freq in
      let p = Deriv.stability_function ~freq ~mag in
      let i = Vec.argmin p in
      let expected = -1. /. (zeta *. zeta) in
      Float.abs (p.(i) -. expected) <= 0.03 *. Float.abs expected)

let prop_stability_eq14_grids =
  (* Eq 1.4 recovery across grid densities and the full zeta band down to
     0.05 (peak -400): the discrete peak value converges to -1/zeta^2
     with a sampling bias that shrinks as the grid refines, so the
     tolerance is tied to the density. The peak abscissa must also land
     on wn within one grid cell. *)
  QCheck.Test.make
    ~name:"eq 1.4 recovery across damping and grid density" ~count:80
    QCheck.(pair (float_range 0.05 1.0) (oneofl [ 3001; 5001; 8001 ]))
    (fun (zeta, n) ->
      let freq = Vec.logspace 0.02 50. n in
      let mag = Array.map (fun x -> second_order_mag ~zeta x) freq in
      let p = Deriv.stability_function ~freq ~mag in
      let i = Vec.argmin p in
      let expected = -1. /. (zeta *. zeta) in
      let tol = if n >= 8001 then 0.02 else if n >= 5001 then 0.03 else 0.05 in
      Float.abs (p.(i) -. expected) <= tol *. Float.abs expected)

let test_stability_clamped_notch () =
  (* Regression: one underflowed-to-zero (or non-finite) magnitude sample
     used to raise Invalid_argument through check_positive and kill the
     whole run; the clamped variant floors it and reports the count. *)
  let zeta = 0.3 in
  let freq = Vec.logspace 0.01 100. 801 in
  let mag = Array.map (fun x -> second_order_mag ~zeta x) freq in
  mag.(400) <- 0.;
  mag.(600) <- Float.nan;
  Alcotest.check_raises "strict form still raises"
    (Invalid_argument
       "Deriv.stability_function (mag): values must be positive and finite")
    (fun () -> ignore (Deriv.stability_function ~freq ~mag));
  let p, clamped = Deriv.stability_function_clamped ~freq ~mag in
  Alcotest.(check int) "two samples clamped" 2 clamped;
  Alcotest.(check bool) "result finite everywhere" true
    (Array.for_all Float.is_finite p);
  (* An untouched response reports zero clamps and matches the strict
     form exactly. *)
  let mag_ok = Array.map (fun x -> second_order_mag ~zeta x) freq in
  let p_ok, clamped_ok = Deriv.stability_function_clamped ~freq ~mag:mag_ok in
  Alcotest.(check int) "clean response: no clamps" 0 clamped_ok;
  let p_strict = Deriv.stability_function ~freq ~mag:mag_ok in
  Array.iteri (fun k v -> check_close "clean = strict" p_strict.(k) v) p_ok

let test_stability_clamped_all_dead () =
  (* Pathological: every sample invalid. The whole array floors at the
     absolute minimum and everything counts as clamped — no crash. *)
  let freq = Vec.logspace 0.1 10. 21 in
  let mag = Array.make 21 0. in
  let p, clamped = Deriv.stability_function_clamped ~freq ~mag in
  Alcotest.(check int) "all clamped" 21 clamped;
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite p)

(* ---------- peaks ---------- *)

let test_peak_detection () =
  let x = Vec.logspace 1. 1e4 400 in
  (* A dip at 100 and a bump at 1000 on a flat baseline. *)
  let y =
    Array.map
      (fun v ->
        let lg = log10 v in
        (-2. *. exp (-.((lg -. 2.) ** 2.) /. 0.01))
        +. (1. *. exp (-.((lg -. 3.) ** 2.) /. 0.01)))
      x
  in
  let peaks = Peak.find ~min_prominence:0.5 ~x ~y () in
  (* The tail descending into the right boundary legitimately registers as
     an edge minimum (the stability tool's "end-of-range" case); count the
     interior extrema here. *)
  let interior = List.filter (fun p -> not p.Peak.at_edge) peaks in
  let minima = List.filter (fun p -> p.Peak.kind = Peak.Minimum) interior in
  let maxima = List.filter (fun p -> p.Peak.kind = Peak.Maximum) interior in
  (match minima with
   | [ p ] ->
     check_close ~tol:2e-2 "dip location" 100. p.Peak.x;
     check_close ~tol:2e-2 "dip value" (-2.) p.Peak.y;
     Alcotest.(check bool) "interior" false p.Peak.at_edge
   | _ -> Alcotest.failf "expected 1 minimum, got %d" (List.length minima));
  match maxima with
  | [ p ] -> check_close ~tol:2e-2 "bump location" 1000. p.Peak.x
  | _ -> Alcotest.failf "expected 1 maximum, got %d" (List.length maxima)

let test_peak_at_edge () =
  let x = Vec.logspace 1. 100. 50 in
  let y = Array.map (fun v -> -.v) x in
  let peaks = Peak.find ~x ~y () in
  Alcotest.(check bool) "edge minimum flagged" true
    (List.exists (fun p -> p.Peak.kind = Peak.Minimum && p.Peak.at_edge) peaks)

let test_parabolic_refine () =
  (* Vertex of y = (x-2)^2 + 1 from samples at 1, 2.5, 3. *)
  let f x = ((x -. 2.) ** 2.) +. 1. in
  let xv, yv =
    Peak.refine_parabolic ~x0:1. ~y0:(f 1.) ~x1:2.5 ~y1:(f 2.5) ~x2:3.
      ~y2:(f 3.)
  in
  check_close "vertex x" 2. xv;
  check_close "vertex y" 1. yv

let test_parabolic_vertex_clamp () =
  (* Regression: samples of a monotone, barely-curved function used to
     extrapolate the vertex far outside the bracket. f(x) = x + 0.001 x^2
     through 0/1/2 has its true parabola vertex near x = -500; the refined
     estimate must stay inside [x0, x2]. *)
  let f x = x +. (0.001 *. x *. x) in
  let xv, yv =
    Peak.refine_parabolic ~x0:0. ~y0:(f 0.) ~x1:1. ~y1:(f 1.) ~x2:2.
      ~y2:(f 2.)
  in
  Alcotest.(check bool) "vertex clamped into bracket" true
    (xv >= 0. && xv <= 2.);
  Alcotest.(check bool) "value finite" true (Float.is_finite yv);
  (* With the vertex pinned to the bracket edge the reported value is the
     parabola evaluated there, which stays near the sampled data. *)
  Alcotest.(check bool) "value near sampled range" true
    (yv >= -1. && yv <= f 2. +. 1.)

let test_parabolic_collinear_fallback () =
  (* Near-collinear samples: the curvature is dominated by rounding noise,
     so the refiner must return the middle sample instead of dividing by
     an essentially-zero curvature. *)
  let xv, yv =
    Peak.refine_parabolic ~x0:1. ~y0:10. ~x1:2. ~y1:20. ~x2:3.
      ~y2:(30. +. 2e-13)
  in
  check_close "falls back to middle x" 2. xv;
  check_close "falls back to middle y" 20. yv;
  (* Exactly collinear behaves the same. *)
  let xv', yv' =
    Peak.refine_parabolic ~x0:1. ~y0:10. ~x1:2. ~y1:20. ~x2:3. ~y2:30.
  in
  check_close "collinear x" 2. xv';
  check_close "collinear y" 20. yv'

(* ---------- eigenvalues ---------- *)

let test_eigen_known () =
  (* Block diagonal: eigenvalue 2 and the pair 3 +/- 4i. *)
  let a =
    Rmat.of_arrays
      [| [| 2.; 0.; 0. |]; [| 0.; 3.; 4. |]; [| 0.; -4.; 3. |] |]
  in
  let eigs =
    Eigen.eigenvalues a
    |> List.sort (fun x y -> compare (x.Complex.re, x.Complex.im)
                     (y.Complex.re, y.Complex.im))
  in
  match eigs with
  | [ e1; e2; e3 ] ->
    check_close "real eig" 2. e1.Complex.re;
    check_close "pair re" 3. e2.Complex.re;
    check_close "pair im" (-4.) e2.Complex.im;
    check_close "conj im" 4. e3.Complex.im
  | _ -> Alcotest.fail "expected 3 eigenvalues"

let test_eigen_triangular () =
  (* Upper triangular: eigenvalues are the diagonal. *)
  let a =
    Rmat.of_arrays
      [| [| 1.; 5.; -2. |]; [| 0.; -3.; 7. |]; [| 0.; 0.; 0.5 |] |]
  in
  let res =
    Eigen.eigenvalues a |> List.map (fun z -> z.Complex.re)
    |> List.sort compare
  in
  match res with
  | [ a1; a2; a3 ] ->
    check_close ~tol:1e-9 "diag 1" (-3.) a1;
    check_close ~tol:1e-9 "diag 2" 0.5 a2;
    check_close ~tol:1e-9 "diag 3" 1. a3
  | _ -> Alcotest.fail "expected 3 eigenvalues"

let test_hessenberg_structure () =
  let st = Random.State.make [| 42 |] in
  let a = Rmat.init 8 8 (fun _ _ -> Random.State.float st 2. -. 1.) in
  let h = Eigen.hessenberg a in
  for i = 2 to 7 do
    for j = 0 to i - 2 do
      check_close "below subdiagonal" 0. (Rmat.get h i j)
    done
  done

let prop_eigen_companion =
  (* Companion matrices of random polynomials: eigenvalues must match the
     polynomial's roots (computed by the independent Durand-Kerner path). *)
  QCheck.Test.make ~name:"companion-matrix eigenvalues = polynomial roots"
    ~count:50
    QCheck.(pair (int_range 2 7) (int_range 0 100_000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 99 |] in
      let coeffs =
        Array.init n (fun _ -> Random.State.float st 4. -. 2.)
      in
      (* monic polynomial s^n + c_{n-1} s^{n-1} + ... + c_0 *)
      let a =
        Rmat.init n n (fun i j ->
            if i = 0 then -.coeffs.(n - 1 - j)
            else if i = j + 1 then 1.
            else 0.)
      in
      let eigs = Eigen.eigenvalues a in
      let poly =
        Poly.of_real_coeffs (Array.append coeffs [| 1. |])
      in
      let roots = Poly.roots poly in
      List.for_all
        (fun r ->
          List.exists
            (fun e -> Cx.mag (Complex.sub r e) < 1e-4 *. Float.max 1. (Cx.mag r))
            eigs)
        roots)

(* ---------- interpolation ---------- *)

let test_interp_linear () =
  let x = [| 0.; 1.; 2. |] and y = [| 0.; 10.; 40. |] in
  check_close "mid" 5. (Interp.linear ~x ~y 0.5);
  check_close "clamp low" 0. (Interp.linear ~x ~y (-1.));
  check_close "clamp high" 40. (Interp.linear ~x ~y 9.)

let test_interp_opt () =
  (* The option-returning variants answer None outside the abscissa range
     instead of silently clamping, and agree with the clamping forms
     inside it (endpoints included). *)
  let x = [| 0.; 1.; 2. |] and y = [| 0.; 10.; 40. |] in
  (match Interp.linear_opt ~x ~y 0.5 with
   | Some v -> check_close "inside matches linear" (Interp.linear ~x ~y 0.5) v
   | None -> Alcotest.fail "linear_opt: in-range query answered None");
  (match Interp.linear_opt ~x ~y 0. with
   | Some v -> check_close "left endpoint" 0. v
   | None -> Alcotest.fail "linear_opt: left endpoint answered None");
  (match Interp.linear_opt ~x ~y 2. with
   | Some v -> check_close "right endpoint" 40. v
   | None -> Alcotest.fail "linear_opt: right endpoint answered None");
  Alcotest.(check bool) "below range is None" true
    (Interp.linear_opt ~x ~y (-0.1) = None);
  Alcotest.(check bool) "above range is None" true
    (Interp.linear_opt ~x ~y 2.1 = None);
  let xf = [| 1.; 10.; 100. |] and yf = [| 1.; 100.; 10000. |] in
  (match Interp.loglog_opt ~x:xf ~y:yf 31.6227766 with
   | Some v ->
     check_close ~tol:1e-6 "loglog inside"
       (Interp.loglog ~x:xf ~y:yf 31.6227766) v
   | None -> Alcotest.fail "loglog_opt: in-range query answered None");
  Alcotest.(check bool) "loglog below range is None" true
    (Interp.loglog_opt ~x:xf ~y:yf 0.5 = None);
  (match Interp.semilogx_opt ~x:xf ~y:[| 0.; 1.; 2. |] 10. with
   | Some v -> check_close "semilogx inside" 1. v
   | None -> Alcotest.fail "semilogx_opt: in-range query answered None");
  Alcotest.(check bool) "semilogx above range is None" true
    (Interp.semilogx_opt ~x:xf ~y:[| 0.; 1.; 2. |] 101. = None)

let test_interp_crossings () =
  let x = [| 0.; 1.; 2.; 3. |] and y = [| -1.; 1.; -1.; 1. |] in
  match Interp.crossings ~x ~y 0. with
  | [ a; b; c ] ->
    check_close "c1" 0.5 a;
    check_close "c2" 1.5 b;
    check_close "c3" 2.5 c
  | l -> Alcotest.failf "expected 3 crossings, got %d" (List.length l)

let test_table_lookup_descending () =
  (* Table 1 style: zeta (descending peak) -> phase margin. *)
  let x = [| -100.; -25.; -11. |] and y = [| 10.; 20.; 30. |] in
  check_close "interpolated" 25. (Interp.table_lookup ~x ~y (-18.))

(* ---------- svg plots ---------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_svgplot_basic () =
  let xs = Vec.logspace 1. 1e6 50 in
  let ys = Array.map (fun x -> 20. *. log10 (1. /. sqrt (1. +. x))) xs in
  let svg =
    Svgplot.render
      (Svgplot.config ~x_axis:Svgplot.Log ~title:"response"
         ~x_label:"f [Hz]" ~y_label:"dB" ())
      [ Svgplot.series "H" xs ys ]
  in
  Alcotest.(check bool) "svg document" true (contains svg "<svg");
  Alcotest.(check bool) "polyline present" true (contains svg "<path d=\"M");
  Alcotest.(check bool) "title shown" true (contains svg "response");
  Alcotest.(check bool) "legend entry" true (contains svg ">H</text>");
  (* Log decade ticks. *)
  Alcotest.(check bool) "decade tick" true (contains svg ">1k</text>")

let test_svgplot_gaps_and_errors () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = [| 1.; Float.nan; 3.; 4. |] in
  let svg =
    Svgplot.render
      (Svgplot.config ~title:"gaps" ~x_label:"x" ~y_label:"y" ())
      [ Svgplot.series "s" xs ys ]
  in
  (* The NaN breaks the path: two MoveTos. *)
  let count_m =
    let n = ref 0 in
    String.iteri
      (fun i c ->
        if c = 'M' && i > 0 && svg.[i - 1] = '"' then incr n)
      svg;
    !n
  in
  Alcotest.(check bool) "path restarts after the gap" true (count_m >= 1);
  Alcotest.(check bool) "negative data on log axis rejected" true
    (try
       ignore
         (Svgplot.render
            (Svgplot.config ~y_axis:Svgplot.Log ~title:"t" ~x_label:"x"
               ~y_label:"y" ())
            [ Svgplot.series "s" [| 1.; 2. |] [| -1.; 2. |] ]);
       false
     with Invalid_argument _ -> true)

(* ---------- sweeps ---------- *)

let test_sweep_decade () =
  let pts = Sweep.points (Sweep.decade 1. 1000. 10) in
  check_close "first" 1. pts.(0);
  check_close "last" 1000. pts.(Array.length pts - 1);
  Alcotest.(check int) "count" 31 (Array.length pts)

let test_sweep_zoom () =
  let pts = Sweep.points (Sweep.zoom ~center:1e6 ~ratio:2. ~per_decade:100) in
  check_close ~tol:1e-9 "zoom start" 5e5 pts.(0);
  check_close ~tol:1e-9 "zoom stop" 2e6 pts.(Array.length pts - 1)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "numerics"
    [ ("engnum",
       [ Alcotest.test_case "parse" `Quick test_engnum_parse;
         Alcotest.test_case "roundtrip" `Quick test_engnum_roundtrip ]);
      ("dense",
       [ Alcotest.test_case "known system" `Quick test_lu_known;
         Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
         Alcotest.test_case "singular detection" `Quick test_lu_singular ]);
      qsuite "dense-props" [ prop_lu_random; prop_complex_lu_random ];
      ("sparse",
       [ Alcotest.test_case "pivoting" `Quick test_sparse_needs_pivoting;
         Alcotest.test_case "singular detection" `Quick test_sparse_singular;
         Alcotest.test_case "duplicate summing" `Quick
           test_sparse_duplicates_summed ]);
      qsuite "sparse-props"
        [ prop_sparse_lu_random; prop_sparse_matches_dense;
          prop_sparse_complex; prop_symbolic_reuse; prop_column_order ];
      ("cond",
       [ Alcotest.test_case "ill-conditioned rcond" `Quick
           test_cond_ill_conditioned;
         Alcotest.test_case "rcond edge cases" `Quick
           test_rcond_edge_cases ]);
      qsuite "cond-props"
        [ prop_dense_transpose_solve; prop_sparse_transpose_solve;
          prop_cond_estimate ];
      ("poly",
       [ Alcotest.test_case "eval" `Quick test_poly_eval;
         Alcotest.test_case "arithmetic" `Quick test_poly_arith;
         Alcotest.test_case "known roots" `Quick test_poly_roots_known ]);
      qsuite "poly-props" [ prop_poly_roots ];
      ("deriv",
       [ Alcotest.test_case "polynomial exact" `Quick
           test_deriv_polynomial_exact;
         Alcotest.test_case "nonuniform grid" `Quick test_deriv_nonuniform;
         Alcotest.test_case "stability peak eq 1.4" `Quick
           test_stability_function_peak;
         Alcotest.test_case "two-pass form agrees" `Quick
           test_stability_two_pass_agrees;
         Alcotest.test_case "clamped notch underflow" `Quick
           test_stability_clamped_notch;
         Alcotest.test_case "clamped all-dead response" `Quick
           test_stability_clamped_all_dead ]);
      qsuite "deriv-props" [ prop_stability_eq14; prop_stability_eq14_grids ];
      ("peak",
       [ Alcotest.test_case "detection" `Quick test_peak_detection;
         Alcotest.test_case "edge flag" `Quick test_peak_at_edge;
         Alcotest.test_case "parabolic refine" `Quick test_parabolic_refine;
         Alcotest.test_case "vertex clamp" `Quick test_parabolic_vertex_clamp;
         Alcotest.test_case "collinear fallback" `Quick
           test_parabolic_collinear_fallback ]);
      ("eigen",
       [ Alcotest.test_case "known spectrum" `Quick test_eigen_known;
         Alcotest.test_case "triangular" `Quick test_eigen_triangular;
         Alcotest.test_case "hessenberg structure" `Quick
           test_hessenberg_structure ]);
      qsuite "eigen-props" [ prop_eigen_companion ];
      ("interp",
       [ Alcotest.test_case "linear" `Quick test_interp_linear;
         Alcotest.test_case "option variants" `Quick test_interp_opt;
         Alcotest.test_case "crossings" `Quick test_interp_crossings;
         Alcotest.test_case "descending table" `Quick
           test_table_lookup_descending ]);
      ("svgplot",
       [ Alcotest.test_case "basic chart" `Quick test_svgplot_basic;
         Alcotest.test_case "gaps and log errors" `Quick
           test_svgplot_gaps_and_errors ]);
      ("sweep",
       [ Alcotest.test_case "decade" `Quick test_sweep_decade;
         Alcotest.test_case "zoom" `Quick test_sweep_zoom ]) ]
