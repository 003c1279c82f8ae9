(* Measurement helpers shared by the workloads. *)

let now = Unix.gettimeofday

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let median = function [] -> 0.0 | xs -> Dmw_stats.Stats.median xs

(* Nearest-rank percentile; 0 for no samples. *)
let percentile xs p =
  match xs with [] -> 0.0 | _ -> Dmw_stats.Stats.percentile xs ~p

let ms s = s *. 1000.0
let per_job n ~jobs = float_of_int n /. float_of_int (max 1 jobs)

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* Seed of the warm-up job that ends every set-up: fixed, so set-up
   time does not vary with the workload seed. *)
let warm_seed = 0x5e7

(* Input seed of the traced half of a traced run. Each measured
   stretch draws from its own input stream, so the traced jobs' inputs
   depend on the seed alone, not on how many untraced jobs fit before
   them. *)
let traced_inputs seed = seed lxor 0x7ace

(* Runs [f] with the reference-clock sampler going (see refclock.ml),
   and returns its result with the clock. *)
let sampled f =
  let sampler = Refclock.start () in
  match f () with
  | r -> (Refclock.stop sampler, r)
  | exception e ->
      ignore (Refclock.stop sampler : Refclock.t);
      raise e

(* An untraced run is [rounds] rounds, spread across the run. Each round
   sets up [setups] times, tearing down all but the last set-up at once,
   measures [seconds / rounds] on the last, and tears down. The median
   set-up time then sees the same machine, noisy neighbours included, as
   the measurement does; set-ups bunched at the start would sample one
   short moment. A workload whose set-up is short sets up more often, so
   that the median holds still. Returns the run's reference clock, the
   median set-up time on it, and each round's measurement. *)
let rounds = 3

let in_rounds ~setups ~seconds ~setup ~teardown ~measure =
  let timed_setup () =
    let t0 = now () in
    let h = Acct.timed "setup" setup in
    ((t0, now ()), h)
  in
  let clock, results =
    sampled (fun () ->
        List.init rounds (fun _ ->
            let spare =
              List.init (setups - 1) (fun _ ->
                  let t, h = timed_setup () in
                  teardown h;
                  t)
            in
            let t, h = timed_setup () in
            Fun.protect
              ~finally:(fun () -> teardown h)
              (fun () ->
                ( t :: spare,
                  measure h ~seconds:(seconds /. float_of_int rounds) ))))
  in
  let setups =
    List.concat_map
      (fun (ts, _) -> List.map (fun (a, b) -> Refclock.span clock a b) ts)
      results
  in
  (clock, median setups, List.map snd results)

(* A traced run sets up once, then measures untraced for half the time
   and traced for the other half. The sampler runs as in an untraced
   run, so both see the same process; its clock gives [host.speed]. *)
let once ~setup ~teardown f =
  sampled (fun () ->
      let h = Acct.timed "setup" setup in
      Fun.protect ~finally:(fun () -> teardown h) (fun () -> f h))

(* The end-to-end metrics of an untraced run. [latencies] are each
   job's (from, to) wall times, [windows] the measured stretches'
   (begin, end). Times are read off the reference clock; the same
   figures on the wall clock go to standard error. *)
let end_to_end clock ~setup_s ~jobs ~latencies ~windows =
  let figures span =
    let lat = List.map (fun x -> ms (span x)) latencies in
    let elapsed = List.fold_left (fun acc w -> acc +. span w) 0.0 windows in
    (float_of_int jobs /. elapsed, percentile lat 50.0, percentile lat 90.0)
  in
  let wall_rate, wall_p50, wall_p90 = figures (fun (a, b) -> b -. a) in
  let rate, p50, p90 = figures (fun (a, b) -> Refclock.span clock a b) in
  Printf.eprintf
    "wall clock: jobs_per_s %.4f, latency_ms_p50 %.3f, latency_ms_p90 %.3f\n"
    wall_rate wall_p50 wall_p90;
  [ metric "setup_s" "s" setup_s;
    metric "jobs_per_s" "1/s" rate;
    metric "latency_ms_p50" "ms" p50;
    metric "latency_ms_p90" "ms" p90;
    metric "heap_peak_mb" "MB" (heap_peak_mb ()) ]

(* Everything a run writes stays below this directory of the working
   directory (the checkout the benchmark runs from). *)
let work_root = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let fresh_dir =
  let k = ref 0 in
  fun prefix ->
    ensure_dir work_root;
    ensure_dir (Filename.concat work_root "tmp");
    incr k;
    let d =
      Filename.concat work_root
        (Printf.sprintf "tmp/%s-%d-%d" prefix (Unix.getpid ()) !k)
    in
    Unix.mkdir d 0o755;
    d

let remove_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Unix.rmdir d
