(* The serve workload: load from this process against an in-process
   [Dmw_serve_core] service (n=4, c=1, 32-bit group, max_wave 8,
   queue_capacity 64, wave_window 0, WAL journaling on). A closed loop
   on the calling thread keeps [2 * max_wave] jobs outstanding, so every
   wave fills; a job is due when the slot it takes frees up. *)

open Meas
module Serve = Dmw_serve_core

let n = 4
let c = 1
let bits = 32
let max_wave = 8

type service = { svc : Serve.t; wal : Dmw_wal.writer; dir : string }

type job = {
  id : int;
  column : int array;
  due : float;
  mutable settled : float;
  mutable result : Serve.job_result option;
}

let await s j =
  let t0 = now () in
  j.result <- Serve.await s.svc j.id;
  j.settled <- now ();
  Acct.span ~job:j.id "await" ~t_start:t0 ~t_stop:j.settled

(* [`Accepted] jobs, or [None] for a refusal of any kind. *)
let submit s ~column ~due =
  let t0 = now () in
  match Serve.submit s.svc ~bids:column with
  | `Accepted id ->
      Acct.span ~job:id "submit" ~t_start:t0 ~t_stop:(now ());
      Some { id; column; due; settled = nan; result = None }
  | `Busy | `Closed | `Invalid _ -> None

(* Service set-up: a fresh directory for the WAL, endpoint connect,
   dispatcher start, and one warm-up job. *)
let open_service ~seed =
  let dir = fresh_dir "serve" in
  let wal = Dmw_wal.create (Filename.concat dir "serve.wal") in
  let cfg =
    Serve.config ~group_bits:bits ~seed ~max_wave ~queue_capacity:64
      ~wave_window:0.0 ~n ~c ()
  in
  let s = { svc = Serve.create ~wal cfg; wal; dir } in
  let warm = Bids.create ~seed:warm_seed ~n ~w_max:(n - c - 1) in
  (match submit s ~column:(Bids.next_task warm) ~due:(now ()) with
  | Some j ->
      await s j;
      if Option.is_none (Option.bind j.result (fun r -> r.Serve.outcome)) then
        failwith "warm-up job did not settle"
  | None -> failwith "warm-up job refused");
  s

let close_service s =
  Serve.shutdown s.svc;
  Dmw_wal.close s.wal;
  remove_dir s.dir

type window = {
  jobs : job list;  (** Accepted, in id order, all settled. *)
  refused : int;
  submissions : int;
  in_window : job list;  (** Jobs whose settlement times the window. *)
  t_begin : float;  (** Wall time the window opened. *)
  elapsed : float;  (** Wall seconds to the last settlement in it. *)
  depth_max : int;
  depth_end : int;
}

let saturated s ~stream ~seconds =
  let outstanding = Queue.create () in
  let refused = ref 0 and submissions = ref 0 and depth_max = ref 0 in
  let offer due =
    incr submissions;
    (match submit s ~column:(Bids.next_task stream) ~due with
    | Some j -> Queue.push j outstanding
    | None -> incr refused);
    depth_max := max !depth_max (Serve.stats s.svc).Serve.queue_depth
  in
  let t_begin = now () in
  for _ = 1 to 2 * max_wave do offer t_begin done;
  let deadline = t_begin +. seconds in
  let in_window = ref [] and after = ref [] in
  while (not (Queue.is_empty outstanding)) && now () < deadline do
    let j = Queue.pop outstanding in
    await s j;
    in_window := j :: !in_window;
    offer j.settled
  done;
  let depth_end = (Serve.stats s.svc).Serve.queue_depth in
  Queue.iter (fun j -> await s j; after := j :: !after) outstanding;
  let in_window = List.rev !in_window in
  let last = List.fold_left (fun a j -> Float.max a j.settled) t_begin in_window in
  { jobs = in_window @ List.rev !after; refused = !refused;
    submissions = !submissions; in_window; t_begin; elapsed = last -. t_begin;
    depth_max = !depth_max; depth_end }

let jobs_per_s w = float_of_int (List.length w.in_window) /. w.elapsed

(* Refused jobs, jobs without a consensus outcome, and outcomes that
   disagree with the Vickrey oracle. *)
let failed_jobs params w =
  Acct.timed "oracle" (fun () ->
      List.fold_left
        (fun acc j ->
          match Option.bind j.result (fun r -> r.Serve.outcome) with
          | Some o when Oracle.task_ok params ~column:j.column o -> acc
          | Some _ | None -> acc + 1)
        w.refused w.jobs)

(* Table 1's messages for the traced epochs, grouped from the jobs'
   results. Serve-side counts are schedule-dependent: on a real-time
   fabric a partial-resolution retry adds messages, so this is reported
   as a ratio, not gated. *)
let predicted_messages jobs =
  let by_epoch = Hashtbl.create 16 in
  List.iter
    (fun j ->
      match j.result with
      | Some { Serve.epoch; outcome = Some o; _ } ->
          Hashtbl.replace by_epoch epoch
            (o.Dmw_core.Agent.y_star
            :: Option.value (Hashtbl.find_opt by_epoch epoch) ~default:[])
      | Some _ | None -> ())
    jobs;
  Hashtbl.fold
    (fun _ ys acc ->
      acc + Oracle.predicted_messages ~n ~first_prices:(Array.of_list ys))
    by_epoch 0

(* One window from the rounds of an untraced run. *)
let merge a b =
  { jobs = a.jobs @ b.jobs;
    refused = a.refused + b.refused;
    submissions = a.submissions + b.submissions;
    in_window = a.in_window @ b.in_window;
    t_begin = a.t_begin;
    elapsed = a.elapsed +. b.elapsed;
    depth_max = max a.depth_max b.depth_max;
    depth_end = max a.depth_end b.depth_end }

let run ~seed ~seconds ~trace =
  let setup () = open_service ~seed in
  let params = Dmw_core.Params.make_exn ~group_bits:bits ~seed ~n ~m:1 ~c () in
  let stream inputs =
    Bids.create ~seed:inputs ~n ~w_max:params.Dmw_core.Params.w_max
  in
  if not trace then begin
    let inputs = stream seed in
    let clock, setup_s, rounds =
      in_rounds ~setups:5 ~seconds ~setup ~teardown:close_service
        ~measure:(fun s ~seconds -> saturated s ~stream:inputs ~seconds)
    in
    let w = List.fold_left merge (List.hd rounds) (List.tl rounds) in
    let failed = failed_jobs params w in
    ( failed = 0,
      w.submissions,
      failed,
      end_to_end clock ~setup_s ~jobs:(List.length w.in_window)
        ~latencies:(List.map (fun j -> (j.due, j.settled)) w.in_window)
        ~windows:
          (List.map (fun r -> (r.t_begin, r.t_begin +. r.elapsed)) rounds) )
  end
  else
    Layers.with_host_speed
    @@ once ~setup ~teardown:close_service (fun s ->
        let half = seconds /. 2.0 in
        let untraced = saturated s ~stream:(stream seed) ~seconds:half in
        Acct.reset_counters ();
        Acct.start_tracing ();
        let first_epoch = (Serve.stats s.svc).Serve.epochs + 1 in
        let gc0 = Gc.quick_stat () in
        let traced =
          saturated s ~stream:(stream (traced_inputs seed)) ~seconds:half
        in
        let gc1 = Gc.quick_stat () in
        let counts = Acct.counts () in
        Acct.stop_tracing ();
        let epoch_s =
          Array.of_list (Acct.program_spans ~backend:"serve" ~name:"run")
        in
        let epoch_of j =
          match j.result with
          | Some r when r.Serve.epoch - first_epoch < Array.length epoch_s ->
              epoch_s.(r.Serve.epoch - first_epoch)
          | Some _ | None -> 0.0
        in
        let probes = Probes.run params ~counts in
        let failed = failed_jobs params untraced + failed_jobs params traced in
        let attempted = untraced.submissions + traced.submissions in
        let t =
          { Layers.jobs = List.length traced.jobs;
            counts;
            predicted_messages = predicted_messages traced.jobs;
            instance_ms = Array.to_list (Array.map ms epoch_s);
            backend = "serve";
            queue_wait_ms =
              List.map
                (fun j -> ms (j.settled -. j.due -. epoch_of j))
                traced.in_window;
            queue_depth_max = traced.depth_max;
            queue_depth_end = traced.depth_end;
            busy = traced.refused;
            submissions = traced.submissions;
            minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
            major_collections =
              gc1.Gc.major_collections - gc0.Gc.major_collections;
            traced_jobs_per_s = jobs_per_s traced;
            untraced_jobs_per_s = jobs_per_s untraced;
            failed;
            attempted }
        in
        (failed = 0, attempted, failed, Layers.metrics t ~probes))
