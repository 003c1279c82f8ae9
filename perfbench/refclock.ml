(* The reference clock that every end-to-end time is read from.

   The benchmark shares its host's cores with other tenants. Their load
   makes the same code run up to about 1.5 times slower for seconds at a
   time, and the process's CPU time slows with it (the host steals no
   time; the core itself does less work per second). Times read from
   the wall clock then measure the neighbours as much as the program.

   So a sampler thread times a fixed calibration kernel every [period]
   seconds while a run measures, and each wall-clock second counts as
   [nominal / measured kernel time] reference seconds. On an uncontended
   host the two clocks agree; when the host slows down, the reference
   clock slows with it. The kernel is this file's own code, so a change
   to the program moves it only through the runtime they share (a new
   minor-heap size, say). The sampler's own kernel time is not counted.
   Deadlines (how long a run measures) stay on the wall clock; only the
   times the benchmark reports are read off this one. *)

let now = Unix.gettimeofday

(* Seconds the sampler sleeps between samples. *)
let period = 0.1

(* One sample runs the kernel in [pieces] timed pieces and scales the
   median piece. A piece that a minor collection or an OCaml thread
   switch lands in is an outlier the median drops, so a sample times
   allocation alone, not the program's heap. *)
let pieces = 10
let piece_iters = 3000

(* Seconds one sample takes on the reference host: an uncontended core
   of the Xeon this figure was measured on. *)
let nominal = 0.00048

(* [iters] small arrays allocated and kept in a ring, so each lives a
   short while and the ring is read back out of order, like the
   program's short-lived bignum limbs. Neighbours slow allocation-heavy
   code like this and the program the most; a kernel that does not
   allocate tracks it poorly. Over a 150 s oneshot_64 run, 10 s windows
   of run times corrected by this kernel spread 0.03 (quartile distance
   over median), by a non-allocating limb-product kernel 0.10 to 0.19,
   uncorrected 0.33. *)
let ring = Array.make 512 [||]

let kernel iters =
  let s = ref 0 in
  for i = 1 to iters do
    ring.(i land 511) <- Array.make 4 i;
    s := !s + Array.length ring.((i * 7) land 511)
  done;
  !s

(* A sample: when the kernel ran, and what it took on this host. *)
type sample = { start : float; stop : float; took : float }

let sample () =
  let start = now () in
  let times =
    List.init pieces (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (kernel piece_iters) : int);
        now () -. t0)
  in
  { start; stop = now ();
    took = float_of_int pieces *. Dmw_stats.Stats.median times }

type sampler = {
  origin : float;
  running : bool Atomic.t;
  mutable samples : sample list;  (** Newest first. *)
  mutable thread : Thread.t option;
}

(* Takes one sample at once, so every run has at least one. *)
let start () =
  let s =
    { origin = now (); running = Atomic.make true; samples = [];
      thread = None }
  in
  s.samples <- [ sample () ];
  let loop () =
    while Atomic.get s.running do
      Unix.sleepf period;
      if Atomic.get s.running then s.samples <- sample () :: s.samples
    done
  in
  s.thread <- Some (Thread.create loop ());
  s

(* A stopped sampler's samples, as a piecewise clock: sample [i] sets
   the speed from midway after sample [i - 1] to midway before sample
   [i + 1], from the median of the three samples' times. *)
type t = {
  bound : float array;  (** Where each sample's segment starts. *)
  speed : float array;  (** Reference seconds per wall second. *)
  skip : (float * float) array;  (** The kernel's own interval. *)
  cum : float array;  (** Reference seconds at each segment start. *)
}

(* Wall seconds from [a] to [b] inside segment [i], less the kernel's. *)
let counted t i a b =
  let k0, k1 = t.skip.(i) in
  b -. a -. Float.max 0.0 (Float.min b k1 -. Float.max a k0)

let stop s =
  Atomic.set s.running false;
  Option.iter Thread.join s.thread;
  s.thread <- None;
  let xs = Array.of_list (List.rev s.samples) in
  let n = Array.length xs in
  let smoothed i =
    Dmw_stats.Stats.median
      (List.filter_map
         (fun k -> if k >= 0 && k < n then Some xs.(k).took else None)
         [ i - 1; i; i + 1 ])
  in
  let mid i = (xs.(i).start +. xs.(i).stop) /. 2.0 in
  let t =
    { bound =
        Array.init n (fun i ->
            if i = 0 then s.origin else (mid (i - 1) +. mid i) /. 2.0);
      speed = Array.init n (fun i -> nominal /. smoothed i);
      skip = Array.map (fun x -> (x.start, x.stop)) xs;
      cum = Array.make n 0.0 }
  in
  for i = 1 to n - 1 do
    t.cum.(i) <-
      t.cum.(i - 1)
      +. (t.speed.(i - 1) *. counted t (i - 1) t.bound.(i - 1) t.bound.(i))
  done;
  Printf.eprintf "reference clock: %d samples, host speed median %.3f\n" n
    (Dmw_stats.Stats.median (Array.to_list t.speed));
  t

(* Reference seconds from the sampler's start to wall time [x]. *)
let at t x =
  let x = Float.max x t.bound.(0) in
  (* The last segment starting at or before [x]. *)
  let rec find lo hi =
    if lo >= hi then lo
    else
      let m = (lo + hi + 1) / 2 in
      if t.bound.(m) <= x then find m hi else find lo (m - 1)
  in
  let i = find 0 (Array.length t.bound - 1) in
  t.cum.(i) +. (t.speed.(i) *. counted t i t.bound.(i) x)

(* Reference seconds between wall times [a] and [b]. *)
let span c a b = at c b -. at c a

(* Median reference seconds per wall second over the run. *)
let median_speed t = Dmw_stats.Stats.median (Array.to_list t.speed)
