open Numerics

type t = {
  mna : Engine.Mna.t;
  op : Engine.Dcop.t;
}

let sweeps_counter = Obs.Counter.make "probe.sweeps"
let sweeps_par_counter = Obs.Counter.make "probe.sweeps_par"
let points_counter = Obs.Counter.make "probe.points"

let prepare ?dc_options circ =
  let t0 = Obs.Span.enter () in
  let mna = Engine.Mna.compile circ in
  Obs.Span.leave "mna.compile" ~args:[ ("unknowns", mna.Engine.Mna.size) ] t0;
  let t1 = Obs.Span.enter () in
  let op = Engine.Dcop.solve ?options:dc_options mna in
  Obs.Span.leave "dc.op" t1;
  { mna; op }

(* Unit current pushed into node index [k]: rhs = +1 at k (the KCL
   convention of the engine counts injected current positive). *)
let excitation size k =
  let b = Array.make size Cx.zero in
  b.(k) <- Cx.one;
  b

(* Mid-band reference frequency of a sweep: seeds the plan's pivot
   order. *)
let omega_ref_of freqs =
  if Array.length freqs = 0 then 2e6 *. Float.pi
  else
    2. *. Float.pi *. sqrt (freqs.(0) *. freqs.(Array.length freqs - 1))

let plan ?(gmin = 1e-12) t ~sweep =
  Engine.Ac_plan.compile ~gmin ~omega_ref:(omega_ref_of (Sweep.points sweep))
    ~op:t.op t.mna

(* Below this many point-solves (unknowns x points x nets, a proxy for
   the sweep's arithmetic volume) the pool's chunking overhead outweighs
   the win and [`Auto] stays sequential. A 25-unknown op-amp swept at 30
   points/decade over six decades with every net probed sits well above
   it; a single-node toy tank stays under. *)
let auto_threshold = 50_000

let estimated_work ~unknowns ~points ~nets =
  unknowns * points * Int.max 1 nets

(* The [`Auto] seq/par decision, exposed whole so tests can pin it:
   distribute only when the sweep carries real arithmetic volume AND the
   pool will actually run worker domains. The second condition uses
   [effective_jobs] (requested jobs clamped to the core count), not the
   requested value — on a machine with fewer cores than [-j] asked for,
   "parallel" used to mean oversubscribed domains fighting the
   stop-the-world minor GC, the one mode that loses to sequential. *)
let auto_decision ~unknowns ~points ~nets =
  Parallel.Pool.effective_jobs () > 1
  && (not (Parallel.Pool.in_worker ()))
  && estimated_work ~unknowns ~points ~nets >= auto_threshold

let response_many ?(gmin = 1e-12) ?(backend = `Auto) ?(parallel = `Auto)
    ?plan:shared ?kernel:shared_kernel ?health t ~sweep nodes =
  let size = t.mna.Engine.Mna.size in
  let indexed =
    List.map
      (fun n ->
        let i = Engine.Mna.node_index t.mna n in
        if i < 0 then
          invalid_arg "Probe.response_many: cannot probe the ground net";
        (n, i))
      nodes
  in
  let freqs = Sweep.points sweep in
  let npts = Array.length freqs in
  let sel = Array.of_list (List.map snd indexed) in
  let outs = Array.map (fun _ -> Array.make npts Cx.zero) sel in
  (* One kernel — and thus exactly one symbolic analysis — per sweep,
     unless the caller shares one across sweeps (the refinement pass
     re-probes many zoom windows of one circuit: same MNA pattern, same
     symbolic analysis, zero recompilation). The kernel carries its
     plan, so a caller's kernel needs no plan beside it. *)
  let kernel =
    match backend with
    | `Dense -> None
    | `Auto ->
      Some
        (match (shared_kernel, shared) with
         | Some k, _ -> k
         | None, Some p -> Engine.Kernel.compile p
         | None, None ->
           Engine.Kernel.compile
             (Engine.Ac_plan.compile ~gmin ~omega_ref:(omega_ref_of freqs)
                ~op:t.op t.mna))
  in
  (* The probe excitations carry no frequency dependence; build the
     multi-RHS batch once per sweep (solves never mutate their RHS, and
     the batch is only read afterwards, so sharing it across domains is
     safe). *)
  let bs = Array.map (excitation size) sel in
  let go_parallel =
    match parallel with
    | `Seq -> false
    | `Par -> true
    | `Auto ->
      auto_decision ~unknowns:size ~points:npts ~nets:(List.length nodes)
  in
  (* Frequency points are independent, and each point writes disjoint
     cells of the pre-allocated result arrays — kernels are immutable
     after compilation, so pooled execution is bit-identical to
     sequential. Work is dealt dynamically over the persistent pool: no
     per-sweep domain spawns, and stealing rebalances the tail. The span
     wraps the whole sweep, never the per-point body, which must stay
     allocation-free of instrumentation. *)
  let run_all n body =
    if go_parallel then Parallel.Pool.parallel_for ~n body
    else
      for k = 0 to n - 1 do
        body k
      done
  in
  Obs.Counter.incr sweeps_counter;
  if go_parallel then Obs.Counter.incr sweeps_par_counter;
  Obs.Counter.add points_counter npts;
  let t0 = Obs.Span.enter () in
  (match kernel with
   | Some kern ->
     (* Chunked: one workspace advances [chunk] consecutive points per
        invocation and the pool deals whole chunks, each on a workspace
        of its own; a sequential sweep keeps one workspace throughout
        (on wide batches each one is a large major-heap block). Neither
        chunk boundaries nor workspace reuse enter the arithmetic. *)
     let cp = Engine.Kernel.chunk in
     (* Each net's response is one component of its solution: the
        selection (built once, shared read-only by every chunk) limits
        each substitution to the pivot steps that component sees. *)
     let selection = Engine.Kernel.select kern ~rhs:bs ~sel in
     let seq_ws =
       if go_parallel then None else Some (Engine.Kernel.workspace selection)
     in
     run_all ((npts + cp - 1) / cp) (fun ck ->
         let lo = ck * cp in
         let ws =
           match seq_ws with
           | Some ws -> ws
           | None -> Engine.Kernel.workspace selection
         in
         Engine.Kernel.run ?health ws ~freqs ~lo ~hi:(Int.min npts (lo + cp))
           ~outs)
   | None ->
     (* The dense oracle: stamp, factor and solve every point afresh. *)
     run_all npts (fun fk ->
         let omega = 2. *. Float.pi *. freqs.(fk) in
         let a = Engine.Ac.matrix_of ~gmin ~op:t.op ~omega t.mna in
         let lu = Cmat.lu_factor a in
         Array.iteri
           (fun q i -> outs.(q).(fk) <- (Cmat.lu_solve lu bs.(q)).(i))
           sel;
         if Engine.Health.sampled fk && Array.length bs > 0 then
           Engine.Ac.dense_health ?meter:health a lu
             ~x:(Cmat.lu_solve lu bs.(0)) ~b:bs.(0)));
  Obs.Span.leave "probe.sweep"
    ~args:
      [ ("points", npts);
        ("nets", List.length nodes);
        ("parallel", if go_parallel then 1 else 0) ]
    t0;
  List.mapi (fun q (n, _) -> (n, Waveform.Freq.make freqs outs.(q))) indexed

let response ?gmin t ~sweep node =
  match response_many ?gmin t ~sweep [ node ] with
  | [ (_, w) ] -> w
  | _ -> assert false

let response_via_netlist ?gmin ?dc_options circ ~sweep node =
  let probed = Circuit.Transform.with_ac_current_probe circ node in
  let ac = Engine.Ac.run ?dc_options ?gmin ~sweep probed in
  Engine.Ac.v ac node
