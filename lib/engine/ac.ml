open Numerics

type result = {
  mna : Mna.t;
  op : Dcop.t;
  freqs : float array;
  solutions : Complex.t array array;
}

let phasor (spec : Circuit.Netlist.source_spec) =
  if spec.ac_mag = 0. then Cx.zero
  else Cx.polar spec.ac_mag (spec.ac_phase_deg *. Float.pi /. 180.)

(* Stamp the matrix of the complex system at angular frequency [w]
   (source phasors go to the RHS separately: probing analyses reuse the
   same matrix with their own excitation). *)
let matrix_at mna prims ~gmin ~w a =
  let jw c = Cx.make 0. (w *. c) in
  let real g = Cx.of_float g in
  Array.iter
    (fun (_, e) ->
      match e with
      | Mna.E_res { i; j; g } -> Mna.stamp_gc a i j (real g)
      | Mna.E_cap { i; j; c; _ } -> Mna.stamp_gc a i j (jw c)
      | Mna.E_ind { i; j; l; br; _ } ->
        Mna.stamp_mat_c a i br Cx.one;
        Mna.stamp_mat_c a j br (Cx.of_float (-1.));
        Mna.stamp_mat_c a br i Cx.one;
        Mna.stamp_mat_c a br j (Cx.of_float (-1.));
        Mna.stamp_mat_c a br br (Cx.neg (jw l))
      | Mna.E_vsrc { i; j; br; _ } ->
        Mna.stamp_mat_c a i br Cx.one;
        Mna.stamp_mat_c a j br (Cx.of_float (-1.));
        Mna.stamp_mat_c a br i Cx.one;
        Mna.stamp_mat_c a br j (Cx.of_float (-1.))
      | Mna.E_isrc _ -> ()
      | Mna.E_vcvs { i; j; ci; cj; br; gain } ->
        Mna.stamp_mat_c a i br Cx.one;
        Mna.stamp_mat_c a j br (Cx.of_float (-1.));
        Mna.stamp_mat_c a br i Cx.one;
        Mna.stamp_mat_c a br j (Cx.of_float (-1.));
        Mna.stamp_mat_c a br ci (real (-.gain));
        Mna.stamp_mat_c a br cj (real gain)
      | Mna.E_vccs { i; j; ci; cj; gm } ->
        Mna.stamp_mat_c a i ci (real gm);
        Mna.stamp_mat_c a i cj (real (-.gm));
        Mna.stamp_mat_c a j ci (real (-.gm));
        Mna.stamp_mat_c a j cj (real gm)
      | Mna.E_cccs { i; j; cbr; gain } ->
        Mna.stamp_mat_c a i cbr (real gain);
        Mna.stamp_mat_c a j cbr (real (-.gain))
      | Mna.E_ccvs { i; j; cbr; br; rm } ->
        Mna.stamp_mat_c a i br Cx.one;
        Mna.stamp_mat_c a j br (Cx.of_float (-1.));
        Mna.stamp_mat_c a br i Cx.one;
        Mna.stamp_mat_c a br j (Cx.of_float (-1.));
        Mna.stamp_mat_c a br cbr (real (-.rm))
      | Mna.E_mut { br1; br2; m } ->
        (* v1 includes jwM i2 and v2 includes jwM i1. *)
        Mna.stamp_mat_c a br1 br2 (Cx.neg (jw m));
        Mna.stamp_mat_c a br2 br1 (Cx.neg (jw m))
      | Mna.E_diode _ | Mna.E_bjt _ | Mna.E_mos _ -> ())
    mna.Mna.elems;
  List.iter
    (function
      | Linearize.L_g { i; j; g } -> Mna.stamp_gc a i j (real g)
      | Linearize.L_c { i; j; c } -> Mna.stamp_gc a i j (jw c)
      | Linearize.L_quad { out_p; out_m; ctrl_p; ctrl_m; gm } ->
        let g = real gm in
        Mna.stamp_mat_c a out_p ctrl_p g;
        Mna.stamp_mat_c a out_p ctrl_m (Cx.neg g);
        Mna.stamp_mat_c a out_m ctrl_p (Cx.neg g);
        Mna.stamp_mat_c a out_m ctrl_m g)
    prims;
  for i = 0 to mna.Mna.n_nodes - 1 do
    Cmat.add_to a i i (real gmin)
  done

(* Independent-source excitation vector. *)
let source_rhs mna b =
  Array.iter
    (fun (_, e) ->
      match e with
      | Mna.E_vsrc { br; spec; _ } -> Mna.stamp_rhs_c b br (phasor spec)
      | Mna.E_isrc { i; j; spec } ->
        let p = phasor spec in
        Mna.stamp_rhs_c b i (Cx.neg p);
        Mna.stamp_rhs_c b j p
      | _ -> ())
    mna.Mna.elems

let matrix_of ?(gmin = 1e-12) ~op ~omega mna =
  let prims = Linearize.of_op op in
  let a = Cmat.create mna.Mna.size mna.Mna.size in
  matrix_at mna prims ~gmin ~w:omega a;
  a

let factor_at ?gmin ~op ~omega mna = Cmat.lu_factor (matrix_of ?gmin ~op ~omega mna)

let mag_inf v = Array.fold_left (fun acc z -> Float.max acc (Cx.mag z)) 0. v

(* Sampled health for the dense per-point path; mirrors the kernel's
   sampled recording so node grades do not depend on the backend
   chosen. *)
let dense_health ?meter a f ~x ~b =
  let rcond = Cond.rcond (Cond.dense a f) in
  let growth = Cmat.pivot_growth a f in
  let residual =
    Health.relative_residual ~norm1:(Cmat.norm1 a)
      ~residual_inf:(Cmat.residual_inf a x b) ~x_inf:(mag_inf x)
      ~b_inf:(mag_inf b)
  in
  Health.record ?meter ~rcond ~growth ~residual ()

let run_compiled ?op ?(gmin = 1e-12) ?(backend = `Auto) ~sweep mna =
  let op = match op with Some op -> op | None -> Dcop.solve mna in
  let freqs = Sweep.points sweep in
  (* The independent-source excitation carries no frequency dependence
     (AC magnitudes and phases only), so one RHS serves the sweep. *)
  let b0 = Array.make mna.Mna.size Cx.zero in
  source_rhs mna b0;
  let solutions =
    match backend with
    | `Dense ->
      let prims = Linearize.of_op op in
      Array.mapi
        (fun k f ->
          let w = 2. *. Float.pi *. f in
          let a = Cmat.create mna.Mna.size mna.Mna.size in
          matrix_at mna prims ~gmin ~w a;
          let lu = Cmat.lu_factor a in
          let x = Cmat.lu_solve lu b0 in
          if Health.sampled k then dense_health a lu ~x ~b:b0;
          x)
        freqs
    | `Auto ->
      let omega_ref =
        if Array.length freqs = 0 then 2e6 *. Float.pi
        else
          2. *. Float.pi
          *. sqrt (freqs.(0) *. freqs.(Array.length freqs - 1))
      in
      let kern = Kernel.compile (Ac_plan.compile ~gmin ~omega_ref ~op mna) in
      Array.mapi
        (fun k f ->
          (Kernel.solve_many ~point:k kern ~omega:(2. *. Float.pi *. f)
             [| b0 |]).(0))
        freqs
  in
  { mna; op; freqs; solutions }

let run ?dc_options ?gmin ?backend ~sweep circ =
  let mna = Mna.compile circ in
  let op = Dcop.solve ?options:dc_options mna in
  run_compiled ~op ?gmin ?backend ~sweep mna

let unknown_wave r idx =
  Waveform.Freq.make r.freqs (Array.map (fun sol -> sol.(idx)) r.solutions)

let v r n =
  let i =
    try Mna.node_index r.mna n
    with Mna.Compile_error _ ->
      invalid_arg (Printf.sprintf "Ac.v: unknown net %S" n)
  in
  if i < 0 then
    (* Ground: identically zero by definition — matches
       Probe.response_many's rejection rather than fabricating a silent
       all-zero waveform for a net the caller may have simply
       misspelled. *)
    invalid_arg (Printf.sprintf "Ac.v: cannot read the ground net %S" n)
  else unknown_wave r i

let vdiff r np nm =
  let wp = v r np and wm = v r nm in
  Waveform.Freq.make r.freqs
    (Array.mapi (fun k z -> Complex.sub z wm.Waveform.Freq.h.(k))
       wp.Waveform.Freq.h)

let branch_i r name = unknown_wave r (Mna.branch_index r.mna name)
