(* Host-speed calibration. The benchmark shares a few cores of a host
   whose speed drifts by a third and more from one minute to the next,
   as other tenants come and go; CPU time per unit of work drifts with
   it, so no run length averages it out. Every pass therefore times a
   fixed kernel that uses none of the program's code, in short samples
   taken between the benchmark's operations, evenly over the pass, and
   scales each timed operation by [nominal_ms] / (the kernel's mean time
   over the samples around that operation): an end-to-end timing reads
   as milliseconds on a host where the kernel takes [nominal_ms]. A
   change to the program moves it; a change of host speed moves the
   kernel with it. The provenance carries the raw timings too. *)

let nominal_ms = 1.0

(* The kernel: Gaussian elimination with partial pivoting of a fixed
   complex 12x12 system, the program's inner loop, on unboxed float
   arrays. It allocates nothing, so its time does not depend on the
   state of the program's heap. The result is kept, so nothing is
   optimised away. *)
let n = 12

let re0, im0 =
  let s = ref 12345 in
  let next () =
    s := (!s * 1103515245 + 12345) land 0x3fffffff;
    float_of_int (!s land 0xffff) /. 65536. -. 0.5
  in
  let re = Array.make (n * n) 0. and im = Array.make (n * n) 0. in
  for k = 0 to (n * n) - 1 do
    re.(k) <- next () +. (if k / n = k mod n then 4. else 0.);
    im.(k) <- next ()
  done;
  (re, im)

let re = Array.make (n * n) 0.
let im = Array.make (n * n) 0.
let br = Array.make n 0.
let bi = Array.make n 0.
let sink = ref 0.

let swap a i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let kernel_once () =
  Array.blit re0 0 re 0 (n * n);
  Array.blit im0 0 im 0 (n * n);
  for i = 0 to n - 1 do
    br.(i) <- float_of_int i;
    bi.(i) <- 1.
  done;
  for k = 0 to n - 1 do
    let p = ref k and best = ref (-1.) in
    for i = k to n - 1 do
      let m = (re.((i * n) + k) *. re.((i * n) + k)) +. (im.((i * n) + k) *. im.((i * n) + k)) in
      if m > !best then begin p := i; best := m end
    done;
    for j = 0 to n - 1 do
      swap re ((k * n) + j) ((!p * n) + j);
      swap im ((k * n) + j) ((!p * n) + j)
    done;
    swap br k !p;
    swap bi k !p;
    let pr = re.((k * n) + k) and pi = im.((k * n) + k) in
    let d = (pr *. pr) +. (pi *. pi) in
    for i = k + 1 to n - 1 do
      let ar = re.((i * n) + k) and ai = im.((i * n) + k) in
      (* f = a(i,k) / a(k,k) *)
      let fr = ((ar *. pr) +. (ai *. pi)) /. d and fi = ((ai *. pr) -. (ar *. pi)) /. d in
      for j = k to n - 1 do
        let xr = re.((k * n) + j) and xi = im.((k * n) + j) in
        re.((i * n) + j) <- re.((i * n) + j) -. ((fr *. xr) -. (fi *. xi));
        im.((i * n) + j) <- im.((i * n) + j) -. ((fr *. xi) +. (fi *. xr))
      done;
      br.(i) <- br.(i) -. ((fr *. br.(k)) -. (fi *. bi.(k)));
      bi.(i) <- bi.(i) -. ((fr *. bi.(k)) +. (fi *. br.(k)))
    done
  done;
  sink := !sink +. br.(n - 1) +. bi.(n - 1)

(* Repetitions per sample: about [nominal_ms] on the host the constant
   was set on (2 vCPUs of an x86-64 server). *)
let reps = 135

type sample = { at : float; wall_ms : float; cpu_ms : float }

type t = {
  mutable samples : sample list;     (* newest first *)
  mutable last : float;              (* when the last tick ended *)
  mutable frozen : sample array;     (* oldest first, once measured *)
}

let create () = { samples = []; last = Stat.now (); frozen = [||] }

let sample t =
  let c0 = Stat.cpu_s () and t0 = Stat.now () in
  for _ = 1 to reps do kernel_once () done;
  let t1 = Stat.now () and c1 = Stat.cpu_s () in
  t.samples <-
    { at = t0; wall_ms = (t1 -. t0) *. 1e3; cpu_ms = (c1 -. c0) *. 1e3 } :: t.samples

(* One sample for every [every] seconds gone by since the last tick (at
   most [max_burst]), so that the samples cover the pass evenly in time
   whatever an operation between two ticks costs, at no more than about
   4 % of it. *)
let every = 0.025
let max_burst = 40

let tick t =
  let k = int_of_float ((Stat.now () -. t.last) /. every) in
  if k > 0 then begin
    for _ = 1 to min max_burst k do sample t done;
    t.last <- Stat.now ()
  end

(* Call once the timed phase is over, before any scaling. *)
let freeze t =
  if t.samples = [] then sample t;
  t.frozen <- Array.of_list (List.rev t.samples)

(* The samples around [t0, t1]: those taken within [window] seconds of
   it, widened to at least [min_samples]. *)
let window = 0.5
let min_samples = 8

let around t ~t0 ~t1 =
  let a = t.frozen in
  let n = Array.length a in
  let first_at x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid).at < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let i = ref (first_at (t0 -. window)) and j = ref (first_at (t1 +. window)) in
  while !j - !i < min min_samples n do
    if !i > 0 then decr i;
    if !j < n then incr j
  done;
  Array.sub a !i (!j - !i)

let mean f s =
  Stat.ratio (Array.fold_left (fun acc x -> acc +. f x) 0. s)
    (float_of_int (Array.length s))

(* Wall-clock time spent taking samples within [t0, t1]. *)
let sampled_ms t ~t0 ~t1 =
  Array.fold_left
    (fun acc s -> if s.at >= t0 && s.at < t1 then acc +. s.wall_ms else acc)
    0. t.frozen

(* A wall-clock duration measured over [t0, t1], at the calibrated
   speed; [cpu] the same for a CPU time. *)
let wall t ~t0 ~t1 ms =
  ms *. nominal_ms /. mean (fun s -> s.wall_ms) (around t ~t0 ~t1)

let cpu t ~t0 ~t1 ms =
  ms *. nominal_ms /. mean (fun s -> s.cpu_ms) (around t ~t0 ~t1)

(* How a pass's timings are scaled: [unscaled] gives the raw values. *)
type scale = {
  wall : t0:float -> t1:float -> float -> float;
  cpu : t0:float -> t1:float -> float -> float;
}

let unscaled = { wall = (fun ~t0:_ ~t1:_ x -> x); cpu = (fun ~t0:_ ~t1:_ x -> x) }
let scaled t = { wall = wall t; cpu = cpu t }

let provenance t (raw : Summary.metric list) =
  let open Tool.Json in
  [ ("calib_samples", Num (float_of_int (Array.length t.frozen)));
    ("calib_wall_ms_mean", Num (mean (fun s -> s.wall_ms) t.frozen));
    ("calib_cpu_ms_mean", Num (mean (fun s -> s.cpu_ms) t.frozen));
    ("raw",
     Obj (List.map (fun (x : Summary.metric) -> (x.name, Num x.value)) raw)) ]
