(* Numerical-health recording for the solve paths. Every AC factor can
   silently lose digits — stale frozen pivots, a near-singular MNA at a
   sweep corner, a gmin-dominated node — and the downstream peak numbers
   would print with full confidence. This module samples the health of
   the hot loop (every Nth point of a sweep, default 16, so the loop
   stays hot) into process-wide histograms, and optionally into a per-sweep
   [meter] whose worst-case values the stability layer turns into a
   per-node quality grade.

   Everything here is atomics: meters are written concurrently by the
   pooled sweep workers, and the histograms are lock-free by
   construction. *)

let default_sample_every = 16
let interval = Atomic.make default_sample_every
let set_sample_every n = Atomic.set interval (max 1 n)
let sample_every () = Atomic.get interval

(* Point [i] of a sweep is sampled when [i] is a multiple of the
   interval: which points are priced depends on the sweep alone, not on
   how many factorisations the process (or a pooled worker) ran before
   it, so sequential and pooled runs, and a daemon's repeated requests,
   record the same values. *)
let sampled i = i mod Atomic.get interval = 0

let h_rcond = Obs.Histogram.make "health.rcond"
let h_growth = Obs.Histogram.make "health.pivot_growth"
let h_residual = Obs.Histogram.make "health.residual"
let h_dc_residual = Obs.Histogram.make "health.dc_residual"

type meter = {
  least_rcond : float Atomic.t;
  most_residual : float Atomic.t;
  n_samples : int Atomic.t;
}

let meter () =
  {
    least_rcond = Atomic.make infinity;
    most_residual = Atomic.make 0.;
    n_samples = Atomic.make 0;
  }

let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let record ?meter ~rcond ~growth ~residual () =
  Obs.Histogram.observe h_rcond rcond;
  Obs.Histogram.observe h_growth growth;
  Obs.Histogram.observe h_residual residual;
  match meter with
  | None -> ()
  | Some m ->
      atomic_min m.least_rcond rcond;
      atomic_max m.most_residual residual;
      Atomic.incr m.n_samples

let record_dc_residual r = Obs.Histogram.observe h_dc_residual r
let worst_rcond m = Atomic.get m.least_rcond
let worst_residual m = Atomic.get m.most_residual
let samples m = Atomic.get m.n_samples

(* Scaled (backward-error style) residual: |Ax - b|_inf over
   ||A||_1 |x|_inf + |b|_inf. A backward-stable solve sits near machine
   epsilon regardless of how large the solution is — raw |Ax - b| would
   flag every high-impedance node whose voltages are legitimately
   huge. *)
let relative_residual ~norm1 ~residual_inf ~x_inf ~b_inf =
  let denom = (norm1 *. x_inf) +. b_inf in
  if denom > 0. then residual_inf /. denom else 0.
