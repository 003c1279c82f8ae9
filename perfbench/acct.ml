(* The benchmark's one door into Dmw_obs. Every enable, reset and read
   of the program's process-global counters and spans goes through this
   module, so when accounting becomes run-scoped only this file has to
   follow. *)

module Metrics = Dmw_obs.Metrics
module Span = Dmw_obs.Span

let start_tracing () = Metrics.enable ()
let stop_tracing () = Metrics.disable ()

(* Counters only: spans recorded so far are kept for the report. *)
let reset_counters () = Metrics.reset ()

(* A counter summed over all of its label sets. *)
let total name =
  List.fold_left
    (fun acc -> function
      | Metrics.Counter { name = n; value; _ } when String.equal n name ->
          acc + value
      | Metrics.Counter _ | Metrics.Gauge _ | Metrics.Hist _ -> acc)
    0 (Metrics.samples ())

type counts = {
  modexps : int;
  commitments : int;
  resolution_tests : int;
  messages : int;
  bytes : int;
  retransmits : int;
  sim_events : int;
  frames : int;
  wire_bytes : int;
  wal_records : int;
  wal_bytes : int;
  wal_fsyncs : int;
}

let counts () =
  { modexps = total "dmw_modexp_total";
    commitments = total "dmw_commitments_total";
    resolution_tests = total "dmw_resolution_tests_total";
    messages = total "dmw_messages_total";
    bytes = total "dmw_bytes_total";
    retransmits = total "dmw_retransmissions_total";
    sim_events = total "dmw_sim_events_total";
    frames = total "dmw_frames_total";
    wire_bytes = total "dmw_wire_bytes_total";
    wal_records = total "dmw_wal_records_total";
    wal_bytes = total "dmw_wal_bytes_total";
    wal_fsyncs = total "dmw_wal_fsyncs_total" }

let diff a b =
  { modexps = a.modexps - b.modexps;
    commitments = a.commitments - b.commitments;
    resolution_tests = a.resolution_tests - b.resolution_tests;
    messages = a.messages - b.messages;
    bytes = a.bytes - b.bytes;
    retransmits = a.retransmits - b.retransmits;
    sim_events = a.sim_events - b.sim_events;
    frames = a.frames - b.frames;
    wire_bytes = a.wire_bytes - b.wire_bytes;
    wal_records = a.wal_records - b.wal_records;
    wal_bytes = a.wal_bytes - b.wal_bytes;
    wal_fsyncs = a.wal_fsyncs - b.wal_fsyncs }

(* The benchmark's own spans, around its calls into each layer: kept in
   memory while [record_spans] is on (traced runs only, set-up
   included) and written out by [write_report]. Every span of one job
   carries its [job] id. Load threads record concurrently. *)
type bench_span = {
  id : int;
  name : string;
  job : int option;
  t_start : float;
  t_stop : float;
}

let recording = Atomic.make false
let record_spans on = Atomic.set recording on
let bench_spans : bench_span list ref = ref []
let bench_lock = Mutex.create ()
let bench_count = ref 0

let span ?job name ~t_start ~t_stop =
  if Atomic.get recording then begin
    Mutex.lock bench_lock;
    incr bench_count;
    let id = !bench_count in
    bench_spans := { id; name; job; t_start; t_stop } :: !bench_spans;
    Mutex.unlock bench_lock
  end

let timed name f =
  let t_start = Unix.gettimeofday () in
  let v = f () in
  span name ~t_start ~t_stop:(Unix.gettimeofday ());
  v

(* Durations, in emission order, of the spans the program itself emits
   once per run (one-shot) or per epoch (serve): the "run" span and the
   phase spans below its task auctions, for one backend label. Serve
   epochs run one at a time, so the k-th "run" span is the k-th traced
   epoch. *)
let program_spans ~backend ~name =
  Span.completed ()
  |> List.filter (fun (s : Span.completed) ->
         String.equal s.name name
         && List.assoc_opt "backend" s.attrs = Some backend)
  |> List.sort (fun (a : Span.completed) b -> Int.compare a.id b.id)
  |> List.map (fun (s : Span.completed) -> s.t_stop -. s.t_start)

(* One JSON-lines file: the program's own report (run identity,
   every counter, every program span), then the benchmark's spans. *)
let write_report ~path ~meta =
  let bench =
    List.rev_map
      (fun s ->
        Printf.sprintf
          "{\"type\":\"bench_span\",\"id\":%d,\"name\":%S,%s\"start\":%.6f,\"stop\":%.6f}\n"
          s.id s.name
          (match s.job with
          | None -> ""
          | Some j -> Printf.sprintf "\"job\":%d," j)
          s.t_start s.t_stop)
      !bench_spans
  in
  Dmw_obs.Export.write_file ~path
    (String.concat "" (Dmw_obs.Export.json_lines ~meta () :: bench))
