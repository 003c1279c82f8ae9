(* One-shot workloads: a closed loop with one client running
   back-to-back [Dmw_exec.run] on the default simulator backend, fresh
   bids and run seed each run, fault-free. Bypasses net, runtime timers,
   serve and wal. *)

open Dmw_core
open Meas

(* [setups]: set-ups per round of an untraced run (see [Meas.in_rounds]).
   Each ends with a warm-up run, 1.7 s on the 512-bit group, so that
   workload sets up once per round. *)
type cfg = { n : int; m : int; bits : int; setups : int }

type run = {
  job : int;
  bids : int array array;
  seed : int;
  ok : bool;  (** Completed, and agreed with the oracle. *)
  first_prices : int array;  (** [y*_j] per task; empty if unresolved. *)
  start : float;  (** Wall time the run started. *)
  wall : float;
  gap : float;  (** Seconds from the previous run's end to this start. *)
  counts : Acct.counts;  (** Program counters of this run (traced only). *)
}

let exec params ~seed ~bids =
  Dmw_exec.run ~seed ~keep_events:false params ~bids

let setup cfg ~seed =
  let params =
    Params.make_exn ~group_bits:cfg.bits ~seed ~n:cfg.n ~m:cfg.m ~c:1 ()
  in
  let warm = Bids.create ~seed:warm_seed ~n:cfg.n ~w_max:params.Params.w_max in
  let r = exec params ~seed:warm_seed ~bids:(Bids.next_run warm ~m:cfg.m) in
  if not (Dmw_exec.completed r) then failwith "warm-up run did not complete";
  params

(* Run back to back until [seconds] have passed. Returns the runs and
   the wall times the loop began and its last run ended. Each run is
   checked against the oracle as soon as it ends, outside its timed
   interval (the check takes microseconds), so that no run's result
   stays live: the heap then does not grow with the number of runs a
   fast stretch of the host fits in. *)
let loop cfg params ~stream ~seeds ~seconds ~first_job =
  let t_begin = now () in
  let prev = ref t_begin and acc = ref [] and job = ref first_job in
  while now () -. t_begin < seconds do
    let bids = Bids.next_run stream ~m:cfg.m in
    let seed = Dmw_bigint.Prng.int seeds 0x3fffffff in
    let c0 = Acct.counts () in
    let t0 = now () in
    let result = exec params ~seed ~bids in
    let t1 = now () in
    Acct.span ~job:!job "dmw_exec.run" ~t_start:t0 ~t_stop:t1;
    let ok =
      Acct.timed "oracle" (fun () ->
          Dmw_exec.completed result && Oracle.run_ok params ~bids result)
    in
    acc :=
      { job = !job; bids; seed; ok;
        first_prices =
          Option.value result.Dmw_exec.first_prices ~default:[||];
        start = t0; wall = t1 -. t0; gap = t0 -. !prev;
        counts = Acct.diff (Acct.counts ()) c0 }
      :: !acc;
    prev := t1;
    incr job
  done;
  (List.rev !acc, t_begin, !prev)

(* On the wall clock, for the two halves of a traced run. *)
let jobs_per_s cfg (runs, t_begin, t_end) =
  float_of_int (cfg.m * List.length runs) /. (t_end -. t_begin)

(* Jobs whose run did not complete or disagrees with the oracle. *)
let failed_jobs cfg runs =
  List.fold_left (fun acc r -> if r.ok then acc else acc + cfg.m) 0 runs

(* Deterministic counts of the traced runs: messages equal Table 1
   exactly, and a repeat of the first run's (seed, bids) repeats its
   modexp, commitment, message and byte counts bit for bit. Modexps are
   printed beside Table 1 without gating: non-uniform y** moves them. *)
let count_checks cfg params runs =
  let n = cfg.n in
  let table1_ok =
    List.for_all
      (fun r ->
        let predicted = Oracle.predicted_messages ~n ~first_prices:r.first_prices in
        let ok = r.counts.Acct.messages = predicted in
        if not ok then
          Printf.eprintf "table1: run %d sent %d messages, Table 1 predicts %d\n"
            r.job r.counts.Acct.messages predicted;
        ok)
      runs
  in
  let measured = List.fold_left (fun a r -> a + r.counts.Acct.modexps) 0 runs in
  let predicted =
    List.fold_left
      (fun a r -> a + Oracle.predicted_modexps ~n ~first_prices:r.first_prices)
      0 runs
  in
  Printf.eprintf "table1: %d modexps measured, %d predicted (not gated)\n"
    measured predicted;
  let repeat_ok =
    match runs with
    | [] -> false
    | r :: _ ->
        let c0 = Acct.counts () in
        ignore (exec params ~seed:r.seed ~bids:r.bids : Dmw_exec.result);
        let c = Acct.diff (Acct.counts ()) c0 in
        let same =
          c.Acct.modexps = r.counts.modexps
          && c.commitments = r.counts.commitments
          && c.messages = r.counts.messages
          && c.bytes = r.counts.bytes
        in
        if not same then
          Printf.eprintf
            "repeat: run %d counted modexps/commitments/messages/bytes \
             %d/%d/%d/%d, its repeat %d/%d/%d/%d\n"
            r.job r.counts.modexps r.counts.commitments r.counts.messages
            r.counts.bytes c.modexps c.commitments c.messages c.bytes;
        same
  in
  table1_ok && repeat_ok

let run cfg ~seed ~seconds ~trace =
  let setup () = setup cfg ~seed in
  (* Bids and run seeds of one measured stretch, drawn from [inputs].
     Bids span Params.make's default range for c = 1: 1 .. n - 2. *)
  let stream inputs =
    ( Bids.create ~seed:inputs ~n:cfg.n ~w_max:(cfg.n - 2),
      Dmw_bigint.Prng.create ~seed:(inputs lxor 0x51ed) )
  in
  let loop params (bids, seeds) ~seconds ~first_job =
    loop cfg params ~stream:bids ~seeds ~seconds ~first_job
  in
  if not trace then begin
    let inputs = stream seed in
    let clock, setup_s, rounds =
      in_rounds ~setups:cfg.setups ~seconds ~setup ~teardown:ignore
        ~measure:(fun params ~seconds ->
          loop params inputs ~seconds ~first_job:0)
    in
    let runs = List.concat_map (fun (runs, _, _) -> runs) rounds in
    let failed = failed_jobs cfg runs in
    ( failed = 0,
      cfg.m * List.length runs,
      failed,
      end_to_end clock ~setup_s ~jobs:(cfg.m * List.length runs)
        ~latencies:(List.map (fun r -> (r.start, r.start +. r.wall)) runs)
        ~windows:
          (List.map (fun (_, t_begin, t_end) -> (t_begin, t_end)) rounds) )
  end
  else
    Layers.with_host_speed
    @@ once ~setup ~teardown:ignore (fun params ->
        let half = seconds /. 2.0 in
        let ((untraced_runs, _, _) as untraced) =
          loop params (stream seed) ~seconds:half ~first_job:0
        in
        Acct.reset_counters ();
        Acct.start_tracing ();
        let gc0 = Gc.quick_stat () in
        let ((runs, _, _) as traced) =
          loop params (stream (traced_inputs seed)) ~seconds:half
            ~first_job:(List.length untraced_runs)
        in
        let gc1 = Gc.quick_stat () in
        let counts = Acct.counts () in
        let counts_ok = count_checks cfg params runs in
        Acct.stop_tracing ();
        let all = untraced_runs @ runs in
        let failed = failed_jobs cfg all in
        let probes = Probes.run params ~counts in
        let gaps = List.map (fun r -> ms r.gap) runs in
        let t =
          { Layers.jobs = cfg.m * List.length runs;
            counts;
            predicted_messages =
              List.fold_left
                (fun a r ->
                  a
                  + Oracle.predicted_messages ~n:cfg.n
                      ~first_prices:r.first_prices)
                0 runs;
            instance_ms = List.map (fun r -> ms r.wall) runs;
            backend = "sim";
            queue_wait_ms = gaps;
            queue_depth_max = 0;
            queue_depth_end = 0;
            busy = 0;
            submissions = List.length all;
            minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
            major_collections =
              gc1.Gc.major_collections - gc0.Gc.major_collections;
            traced_jobs_per_s = jobs_per_s cfg traced;
            untraced_jobs_per_s = jobs_per_s cfg untraced;
            failed;
            attempted = cfg.m * List.length all }
        in
        ( failed = 0 && counts_ok,
          cfg.m * List.length all,
          failed,
          Layers.metrics t ~probes ))
