(* The per-layer figures of a traced run, shared by every workload so
   each one reports the same metric names. Counts are per settled job
   (one task auction); times are medians. *)

open Meas

type traced = {
  jobs : int;  (** Jobs settled in the traced window. *)
  counts : Acct.counts;  (** Program counters over the traced window. *)
  predicted_messages : int;  (** Table 1's count for the same instances. *)
  instance_ms : float list;
      (** Wall time of each protocol instance: a one-shot run or a serve
          epoch. *)
  backend : string;  (** Label of the program's per-instance span trees. *)
  queue_wait_ms : float list;
  queue_depth_max : int;
  queue_depth_end : int;
  busy : int;
  submissions : int;
  minor_words : float;
  major_collections : int;
  traced_jobs_per_s : float;
  untraced_jobs_per_s : float;
  failed : int;
  attempted : int;
}

(* The program's phase spans: wall seconds on serve, virtual seconds
   of the simulator's latency model on one-shot runs. *)
let phase_ms t name =
  ms (median (Acct.program_spans ~backend:t.backend ~name))

let metrics t ~probes =
  let c = t.counts and jobs = t.jobs in
  let per n = per_job n ~jobs in
  let pow_us =
    (List.find (fun p -> String.equal p.name "modular.pow_us") probes).value
  in
  let modexp_per_job = per c.Acct.modexps in
  let instances = List.length t.instance_ms in
  [ metric "modular.modexp_per_job" "count" modexp_per_job;
    metric "modular.pow_share" "ratio"
      (modexp_per_job *. pow_us *. 1e-6 *. t.untraced_jobs_per_s);
    metric "crypto.commitments_per_job" "count" (per c.commitments);
    metric "crypto.resolution_tests_per_job" "count" (per c.resolution_tests);
    metric "exec.msgs_per_job" "count" (per c.messages);
    metric "exec.bytes_per_job" "bytes" (per c.bytes);
    metric "exec.retransmits_per_job" "count" (per c.retransmits);
    metric "exec.msg_work_ratio" "ratio"
      (float_of_int t.predicted_messages /. float_of_int (max 1 c.messages));
    metric "exec.phase_commit_ms" "ms" (phase_ms t "commit");
    metric "exec.phase_share_ms" "ms" (phase_ms t "share");
    metric "exec.phase_resolve_ms" "ms" (phase_ms t "resolve");
    metric "exec.phase_payment_ms" "ms" (phase_ms t "payment");
    metric "sim.events_per_job" "count" (per c.sim_events);
    metric "net.frames_per_job" "count" (per c.frames);
    metric "net.wire_bytes_per_job" "bytes" (per c.wire_bytes);
    metric "serve.jobs_per_epoch" "count" (per_job jobs ~jobs:instances);
    metric "serve.epoch_ms_p50" "ms" (median t.instance_ms);
    metric "serve.queue_wait_ms_p50" "ms" (median t.queue_wait_ms);
    metric "serve.queue_depth_max" "count" (float_of_int t.queue_depth_max);
    metric "serve.queue_depth_end" "count" (float_of_int t.queue_depth_end);
    metric "serve.busy_ratio" "ratio" (per_job t.busy ~jobs:t.submissions);
    metric "wal.records_per_job" "count" (per c.wal_records);
    metric "wal.bytes_per_job" "bytes" (per c.wal_bytes);
    metric "wal.fsyncs_per_job" "count" (per c.wal_fsyncs);
    metric "gc.minor_mwords_per_job" "Mwords"
      (t.minor_words /. 1e6 /. float_of_int (max 1 jobs));
    metric "gc.major_collections_per_job" "count" (per t.major_collections);
    metric "obs.trace_overhead_ratio" "ratio"
      (t.traced_jobs_per_s /. t.untraced_jobs_per_s);
    metric "fail_ratio" "ratio" (per_job t.failed ~jobs:t.attempted) ]
  @ probes

(* A traced run's result with the host's median speed on the reference
   clock appended: reference seconds per wall second, 1 on an
   uncontended host, lower while neighbours slow it down. *)
let with_host_speed (clock, (correct, attempted, failed, metrics)) =
  ( correct,
    attempted,
    failed,
    metrics @ [ metric "host.speed" "ratio" (Refclock.median_speed clock) ] )
