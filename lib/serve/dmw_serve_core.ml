open Dmw_bigint
open Dmw_core
open Dmw_runtime
open Dmw_net

(* The persistent auction service: one long-lived fabric, n worker
   threads holding their endpoint sessions across epochs, and a
   dispatcher thread that batches queued jobs into waves. See the mli
   for the concurrency contract and DESIGN.md for the epoch/barrier
   protocol. *)

type config = {
  n : int;
  c : int;
  group_bits : int;
  seed : int;
  w_max : int option;
  pipeline : int option;
  max_wave : int;
  queue_capacity : int;
  wave_window : float;
  epoch_timeout : float;
}

let config ?(group_bits = 64) ?(seed = 0) ?w_max ?pipeline ?(max_wave = 8)
    ?(queue_capacity = 64) ?(wave_window = 0.0) ?(epoch_timeout = 30.0) ~n ~c
    () =
  if max_wave < 1 then invalid_arg "Dmw_serve_core.config: max_wave < 1";
  if queue_capacity < 1 then
    invalid_arg "Dmw_serve_core.config: queue_capacity < 1";
  if wave_window < 0.0 then
    invalid_arg "Dmw_serve_core.config: negative wave_window";
  if epoch_timeout <= 0.0 then
    invalid_arg "Dmw_serve_core.config: non-positive epoch_timeout";
  (match pipeline with
  | Some d when d < 1 -> invalid_arg "Dmw_serve_core.config: pipeline < 1"
  | Some _ | None -> ());
  { n; c; group_bits; seed; w_max; pipeline; max_wave; queue_capacity;
    wave_window; epoch_timeout }

(* race: confined extern: a job is written by the submitter, handed
   off through Bounded_queue, and read by the dispatcher — the
   queue's lock orders the two sides. *)
type job = { id : int; w_vector : int array }

type job_result = {
  job : int;
  epoch : int;
  task : int;
  outcome : Agent.task_outcome option;
  error : string option;
}

type t = {
  cfg : config;
  w_max : int;  (* resolved bid-range bound, for submit-time checks *)
  wal : Dmw_wal.writer option;
      (* Write-ahead journal: the writer serializes its own appends,
         so the submitter and dispatcher threads may both write. *)
  t0 : float;  (* service birth; the obs clock every span shares *)
  fabric : Fabric.t;
  queue : job Bounded_queue.t;
  (* race: confined readonly: fixed at create; each Mailbox inside
     carries its own lock. *)
  boxes : Agent.t Mailbox.t array;  (* per-worker: next epoch's agent *)
  done_box : unit Mailbox.t;  (* workers signal end-of-epoch here *)
  (* race: confined owner: written by create, read by shutdown — both
     on the thread that owns the service handle. *)
  mutable workers : Thread.t array;
  (* race: confined owner: same discipline as workers. *)
  mutable dispatcher : Thread.t option;
  (* Submission side. *)
  smutex : Mutex.t;
  mutable next_job : int;
  (* Result side: published under rmutex, watched through rcond. A
     job id is in [unsettled] from acceptance to settlement and in
     [results] from settlement to its one [await]; both stay bounded
     by the queue capacity plus one wave. *)
  rmutex : Mutex.t;
  rcond : Condition.t;
  unsettled : (int, unit) Hashtbl.t;
  results : (int, job_result) Hashtbl.t;
  mutable epochs : int;
  mutable jobs_done : int;
  mutable stopped : bool;
  (* Dispatcher gate for deterministic test setup. *)
  pmutex : Mutex.t;
  pcond : Condition.t;
  mutable paused : bool;
}

let backend_label = "serve"
let obs_labels = [ ("backend", backend_label) ]

let journal t r =
  match t.wal with None -> () | Some w -> Dmw_wal.append w r

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* One thread per agent endpoint, alive for the whole service: each
   epoch the dispatcher hands it a fresh agent (instance-scoped to the
   epoch) and it runs one endpoint session over the same fd. The
   done_box push must precede the outcome dispatch so the dispatcher's
   barrier wait can never miss a worker that is about to exit. *)
let worker t i () =
  let fd = Fabric.endpoint_fd t.fabric i in
  let now () = Unix.gettimeofday () -. t.t0 in
  let rec loop () =
    match Mailbox.pop t.boxes.(i) with
    | None -> ()
    | Some agent ->
        let outcome =
          (* det: obs-only: the wall clock threaded here is the span
             timestamp inside the obs transport wrapper; frame payloads
             come from the agent's protocol state alone *)
          Endpoint.run_session
            ~wrap:(Dmw_exec.Obs.transport ~backend:backend_label ~now ~src:i)
            ~on_recv:(fun ~src:_ -> Dmw_exec.Obs.recv ~backend:backend_label)
            ~fd ~agent
            ~on_send:(fun ~dst:_ ~tag:_ ~bytes:_ -> ())
            ()
        in
        Mailbox.push t.done_box ();
        (match outcome with `Epoch_end -> loop () | `Stop -> ())
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let publish t r =
  Mutex_util.with_lock t.rmutex (fun () ->
      Hashtbl.remove t.unsettled r.job;
      Hashtbl.replace t.results r.job r;
      t.jobs_done <- t.jobs_done + 1;
      Condition.broadcast t.rcond)

let await t id =
  Mutex_util.with_lock t.rmutex (fun () ->
      let rec wait () =
        match Hashtbl.find_opt t.results id with
        | Some r ->
            Hashtbl.remove t.results id;
            Some r
        | None ->
            if t.stopped || not (Hashtbl.mem t.unsettled id) then None
            else begin
              Condition.wait t.rcond t.rmutex;
              wait ()
            end
      in
      wait ())

type stats = { epochs : int; jobs : int; queue_depth : int; unclaimed : int }

let stats t =
  Mutex_util.with_lock t.rmutex (fun () ->
      { epochs = t.epochs; jobs = t.jobs_done;
        queue_depth = Bounded_queue.length t.queue;
        unclaimed = Hashtbl.length t.results })

(* ------------------------------------------------------------------ *)
(* Epochs                                                              *)
(* ------------------------------------------------------------------ *)

(* Drain this epoch's payment reports from the infrastructure endpoint
   (fd n). Only Scoped reports naming the current epoch count — a
   report from a previous wave still sitting in the socket buffer must
   not feed this wave's settlement. Mirrors the one-shot socket
   backend's collector, with the same early exit once every agent has
   reported, aborted, or dispatched its Phase IV send. *)
let collect_reports t ~epoch ~agents ~infra =
  let n = t.cfg.n in
  let infra_fd = Fabric.endpoint_fd t.fabric n in
  let deadline = Unix.gettimeofday () +. t.cfg.epoch_timeout in
  let grace = 0.25 in
  let received = Hashtbl.create n in
  let finished () =
    Array.for_all
      (fun a ->
        Hashtbl.mem received (Agent.id a)
        || Option.is_some (Agent.aborted a)
        || Option.is_some (Agent.reported_payments a))
      agents
  in
  let finished_at = ref None in
  let continue_ = ref true in
  while !continue_ && Hashtbl.length received < n do
    let now = Unix.gettimeofday () in
    (match !finished_at with
    | None -> if finished () then finished_at := Some now
    | Some _ -> ());
    let stop_at =
      match !finished_at with
      | Some at -> Float.min deadline (at +. grace)
      | None -> deadline
    in
    let remaining = stop_at -. now in
    if remaining <= 0.0 then continue_ := false
    else
      match Unix.select [ infra_fd ] [] [] (Float.min remaining 0.05) with
      | [], _, _ -> ()
      | _ -> (
          match Frame.read infra_fd with
          | `Closed -> continue_ := false
          | `Frame (src, _, payload) -> (
              match Codec.decode payload with
              | Ok
                  (Messages.Scoped
                     { instance; msg = Messages.Payment_report { payments } })
                when instance = epoch ->
                  if src >= 0 && src < n && not (Hashtbl.mem received src)
                  then begin
                    Hashtbl.replace received src ();
                    Payment_infra.receive infra ~from_:src payments
                  end
              | Ok (Messages.Scoped _)
              | Ok
                  ( Messages.Share _ | Messages.Commitments _
                  | Messages.Lambda_psi _ | Messages.F_disclosure _
                  | Messages.F_disclosure_hardened _
                  | Messages.Lambda_psi_excl _ | Messages.Payment_report _
                  | Messages.Batch _ )
              | Error _ ->
                  ()))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let run_epoch t wave =
  let epoch = Mutex_util.with_lock t.rmutex (fun () -> t.epochs + 1) in
  let n = t.cfg.n in
  let m = Array.length wave in
  let params =
    Params.make_exn ~group_bits:t.cfg.group_bits ~seed:t.cfg.seed
      ?w_max:t.cfg.w_max ~n ~m ~c:t.cfg.c ()
  in
  (* Epoch seeding: wave 1 of a service seeded with s is bit-for-bit
     Dmw_exec.run ~seed:s on the same jobs; later waves re-salt with
     the same stride the one-shot runner uses between attempts. *)
  let epoch_seed = t.cfg.seed + (7919 * (epoch - 1)) in
  journal t
    (Dmw_wal.Epoch_start { epoch; jobs = Array.map (fun job -> job.id) wave });
  let master_rng = Prng.create ~seed:(epoch_seed lxor 0xA6E77) in
  let agents =
    Array.init n (fun i ->
        Agent.create ?pipeline:t.cfg.pipeline ~instance:epoch ~params ~id:i
          ~bids:(Array.map (fun job -> job.w_vector.(i)) wave)
          ~strategy:Strategy.Suggested
          ~rng:(Prng.split master_rng) ())
  in
  Dmw_exec.Obs.reset ();
  let e0 = Unix.gettimeofday () in
  let infra = Payment_infra.create ~n in
  Array.iteri (fun i a -> Mailbox.push t.boxes.(i) a) agents;
  collect_reports t ~epoch ~agents ~infra;
  (* Barrier: end every endpoint session, then wait for all n workers
     to acknowledge before the next wave's agents are dealt — a worker
     still draining epoch e must never receive epoch e+1's agent
     before its session returns. *)
  Fabric.broadcast_epoch t.fabric ~instance:epoch;
  for _ = 1 to n do
    ignore (Mailbox.pop ~timeout:t.cfg.epoch_timeout t.done_box : unit option)
  done;
  Array.iter Agent.finalize_stall agents;
  let duration = Unix.gettimeofday () -. e0 in
  Dmw_exec.Obs.emit ~backend:backend_label;
  let module Metrics = Dmw_obs.Metrics in
  Metrics.observe ~labels:obs_labels "dmw_serve_epoch_seconds" duration;
  Metrics.bump ~labels:obs_labels "dmw_serve_epochs_total" 1;
  Metrics.bump ~labels:obs_labels "dmw_serve_jobs_total" m;
  Metrics.set ~labels:obs_labels "dmw_serve_queue_depth"
    (float_of_int (Bounded_queue.length t.queue));
  let schedule = Agent.consensus agents ~c:t.cfg.c in
  let resolved =
    Array.to_list agents
    |> List.find_opt (fun a ->
           Option.is_none (Agent.aborted a)
           && Array.for_all Option.is_some (Agent.outcomes a))
  in
  let settled = Payment_infra.settle infra ~quorum:(n - t.cfg.c) in
  Metrics.bump ~labels:obs_labels "dmw_serve_settled_total"
    (Array.fold_left
       (fun k p -> if Option.is_some p then k + 1 else k)
       0 settled);
  Mutex_util.with_lock t.rmutex (fun () -> t.epochs <- epoch);
  Array.iteri
    (fun j job ->
      let outcome =
        match (schedule, resolved) with
        | Some _, Some a -> (Agent.outcomes a).(j)
        | (Some _ | None), _ -> None
      in
      let error =
        match outcome with
        | Some _ -> None
        | None -> Some "wave failed: no consensus"
      in
      (match outcome with
      | Some (o : Agent.task_outcome) ->
          journal t
            (Dmw_wal.Job_done
               { job = job.id; epoch; task = j; winner = o.winner;
                 y_star = o.y_star; y_star2 = o.y_star2 })
      | None ->
          journal t
            (Dmw_wal.Job_failed
               { job = job.id; epoch; task = j;
                 error = Option.value error ~default:"unknown" }));
      publish t { job = job.id; epoch; task = j; outcome; error })
    wave;
  journal t (Dmw_wal.Epoch_end { epoch })

let fail_wave t wave message =
  (* t.epochs is owned by rmutex; the dispatcher may be bumping it
     concurrently, so take the same snapshot run_wave does. *)
  let epoch = Mutex_util.with_lock t.rmutex (fun () -> t.epochs + 1) in
  Array.iteri
    (fun j job ->
      journal t
        (Dmw_wal.Job_failed { job = job.id; epoch; task = j; error = message });
      publish t
        { job = job.id; epoch; task = j; outcome = None;
          error = Some message })
    wave

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let wait_resumed t =
  Mutex_util.with_lock t.pmutex (fun () ->
      while t.paused do
        Condition.wait t.pcond t.pmutex
      done)

(* Take everything already queued, up to the wave bound. *)
let rec fill_wave t acc k =
  if k = 0 then List.rev acc
  else
    match Bounded_queue.pop ~timeout:0.0 t.queue with
    | None -> List.rev acc
    | Some job -> fill_wave t (job :: acc) (k - 1)

let rec dispatch t =
  wait_resumed t;
  match Bounded_queue.pop t.queue with
  | None -> ()  (* closed and drained: shutdown *)
  | Some first ->
      if t.cfg.wave_window > 0.0 then Thread.delay t.cfg.wave_window;
      let wave = Array.of_list (fill_wave t [ first ] (t.cfg.max_wave - 1)) in
      (try fst (Dmw_obs.Metrics.scoped (fun () -> run_epoch t wave))
       with exn -> fail_wave t wave (Printexc.to_string exn));
      dispatch t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let resume t =
  Mutex_util.with_lock t.pmutex (fun () ->
      t.paused <- false;
      Condition.broadcast t.pcond)

let create ?(paused = false) ?wal ?(epoch_base = 0) ?(job_base = 0) cfg =
  if epoch_base < 0 then invalid_arg "Dmw_serve_core.create: epoch_base < 0";
  if job_base < 0 then invalid_arg "Dmw_serve_core.create: job_base < 0";
  match
    Params.make ~group_bits:cfg.group_bits ~seed:cfg.seed ?w_max:cfg.w_max
      ~n:cfg.n ~m:1 ~c:cfg.c ()
  with
  | Error e -> invalid_arg ("Dmw_serve_core.create: " ^ e)
  | Ok probe ->
      let t =
        { cfg;
          w_max = probe.Params.w_max;
          wal;
          t0 = Unix.gettimeofday ();
          fabric = Fabric.create ~endpoints:(cfg.n + 1);
          queue = Bounded_queue.create ~capacity:cfg.queue_capacity;
          boxes = Array.init cfg.n (fun _ -> Mailbox.create ());
          done_box = Mailbox.create ();
          workers = [||];
          dispatcher = None;
          smutex = Mutex.create ();
          next_job = job_base;
          rmutex = Mutex.create ();
          rcond = Condition.create ();
          unsettled = Hashtbl.create 64;
          results = Hashtbl.create 64;
          epochs = epoch_base;
          jobs_done = 0;
          stopped = false;
          pmutex = Mutex.create ();
          pcond = Condition.create ();
          paused }
      in
      journal t
        (Dmw_wal.Serve_start
           { n = cfg.n; c = cfg.c; group_bits = cfg.group_bits;
             seed = cfg.seed; w_max = cfg.w_max; pipeline = cfg.pipeline;
             max_wave = cfg.max_wave });
      t.workers <- Array.init cfg.n (fun i -> Thread.create (worker t i) ());
      t.dispatcher <- Some (Thread.create dispatch t);
      t

let submit t ~bids =
  if Array.length bids <> t.cfg.n then
    `Invalid
      (Printf.sprintf "expected %d bid levels, got %d" t.cfg.n
         (Array.length bids))
  else if not (Array.for_all (fun w -> w >= 1 && w <= t.w_max) bids) then
    `Invalid (Printf.sprintf "bid levels must lie in 1..%d" t.w_max)
  else
    Mutex_util.with_lock t.smutex (fun () ->
        let id = t.next_job in
        (* Marked before the push: once queued, the job may settle
           before this thread runs again. *)
        Mutex_util.with_lock t.rmutex (fun () -> Hashtbl.replace t.unsettled id ());
        match Bounded_queue.try_push t.queue { id; w_vector = bids } with
        | `Ok ->
            t.next_job <- id + 1;
            journal t
              (Dmw_wal.Job_submitted { job = id; bids = Array.copy bids });
            `Accepted id
        | (`Full | `Closed) as refused -> (
            Mutex_util.with_lock t.rmutex (fun () -> Hashtbl.remove t.unsettled id);
            match refused with `Full -> `Busy | `Closed -> `Closed))

let shutdown t =
  Bounded_queue.close t.queue;
  resume t;  (* a paused dispatcher must still wake up to drain *)
  (match t.dispatcher with
  | Some th ->
      Thread.join th;
      t.dispatcher <- None
  | None -> ());
  (* The dispatcher waits out every epoch's barrier before returning,
     so at this point all workers idle in their mailboxes. *)
  Array.iter Mailbox.close t.boxes;
  Fabric.broadcast_stop t.fabric;
  Array.iter Thread.join t.workers;
  Mailbox.close t.done_box;
  Fabric.shutdown t.fabric;
  Mutex_util.with_lock t.rmutex (fun () ->
      t.stopped <- true;
      Condition.broadcast t.rcond)

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

type recovery = {
  n : int;
  c : int;
  group_bits : int;
  seed : int;
  w_max : int option;
  pipeline : int option;
  max_wave : int;
  results : job_result list;
  kept : int;
  replayed : int;
  next_epoch : int;
  next_job : int;
}

let ( let* ) = Result.bind

(* Recovery re-derives every interrupted epoch from the journal alone:
   epoch [e] of a service seeded with [s] is, by construction,
   [Dmw_exec.run ~seed:(s + 7919*(e-1))] over the wave's bid vectors,
   and signatures are backend-invariant, so the sim backend replays a
   socket service's waves bit for bit. Settlements the crashed process
   already journaled become obligations the replay must reproduce. *)
let recover ?journal:w records =
  let jot r = match w with None -> () | Some jw -> Dmw_wal.append jw r in
  let* hdr =
    let rec find = function
      | [] -> Error "write-ahead log has no Serve_start header"
      | (Dmw_wal.Serve_start _ as h) :: _ -> Ok h
      | _ :: rest -> find rest
    in
    find records
  in
  let* () =
    (* A resumed service appends a fresh Serve_start segment; all
       segments must describe the same service. *)
    if
      List.for_all
        (function Dmw_wal.Serve_start _ as r -> r = hdr | _ -> true)
        records
    then Ok ()
    else Error "write-ahead log mixes headers from different services"
  in
  let* n, c, group_bits, seed, w_max, pipeline, max_wave =
    match hdr with
    | Dmw_wal.Serve_start { n; c; group_bits; seed; w_max; pipeline; max_wave }
      ->
        Ok (n, c, group_bits, seed, w_max, pipeline, max_wave)
    | _ -> Error "unreachable: the header is a Serve_start record"
  in
  (* Fold the journal; the last record naming a job or epoch wins, so
     recovering an already-recovered log sees the repaired state. *)
  let subs = Hashtbl.create 64 in
  let order = ref [] in
  let settled = Hashtbl.create 64 in
  let estarts = Hashtbl.create 16 in
  let eends = Hashtbl.create 16 in
  let dispatched = Hashtbl.create 64 in
  let max_epoch = ref 0 in
  let max_job = ref (-1) in
  let note_job j = if j > !max_job then max_job := j in
  List.iter
    (fun r ->
      match r with
      | Dmw_wal.Job_submitted { job; bids } ->
          if not (Hashtbl.mem subs job) then order := job :: !order;
          Hashtbl.replace subs job bids;
          note_job job
      | Dmw_wal.Epoch_start { epoch; jobs } ->
          Hashtbl.replace estarts epoch jobs;
          Array.iter (fun j -> Hashtbl.replace dispatched j ()) jobs;
          if epoch > !max_epoch then max_epoch := epoch
      | Dmw_wal.Epoch_end { epoch } -> Hashtbl.replace eends epoch ()
      | Dmw_wal.Job_done { job; epoch; task; winner; y_star; y_star2 } ->
          Hashtbl.replace settled job
            { job; epoch; task;
              outcome = Some { Agent.winner; y_star; y_star2 };
              error = None };
          note_job job
      | Dmw_wal.Job_failed { job; epoch; task; error } ->
          Hashtbl.replace settled job
            { job; epoch; task; outcome = None; error = Some error };
          note_job job
      | _ -> ())
    records;
  let kept = Hashtbl.length settled in
  jot (Dmw_wal.Resumed { kept });
  (* Waves still owed an execution: journaled epochs that never reached
     their Epoch_end, then never-dispatched submissions batched
     [max_wave] at a time into fresh epochs, in submission order. *)
  let unfinished =
    Hashtbl.fold
      (fun e jobs acc -> if Hashtbl.mem eends e then acc else (e, jobs) :: acc)
      estarts []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let fresh_ids =
    List.rev !order
    |> List.filter (fun j ->
           (not (Hashtbl.mem dispatched j)) && not (Hashtbl.mem settled j))
  in
  let rec take k = function
    | x :: rest when k > 0 ->
        let xs, rest' = take (k - 1) rest in
        (x :: xs, rest')
    | rest -> ([], rest)
  in
  let rec batch acc = function
    | [] -> List.rev acc
    | ids ->
        let wave, rest = take max_wave ids in
        batch (Array.of_list wave :: acc) rest
  in
  let fresh_waves =
    List.mapi (fun k ids -> (!max_epoch + 1 + k, ids)) (batch [] fresh_ids)
  in
  let next_epoch = !max_epoch + List.length fresh_waves in
  let exec ~epoch jobs_bids =
    let m = Array.length jobs_bids in
    let* params =
      match Params.make ~group_bits ~seed ?w_max ~n ~m ~c () with
      | Ok p -> Ok p
      | Error e -> Error ("invalid journaled service parameters: " ^ e)
    in
    let bids =
      Array.init n (fun i -> Array.map (fun bv -> bv.(i)) jobs_bids)
    in
    let* r =
      match
        Dmw_exec.run ~seed:(seed + (7919 * (epoch - 1))) ~keep_events:false
          ?pipeline params ~bids
      with
      | r -> Ok r
      | exception Invalid_argument e -> Error ("replay failed: " ^ e)
    in
    match
      (r.Dmw_exec.schedule, r.Dmw_exec.first_prices, r.Dmw_exec.second_prices)
    with
    | Some s, Some fp, Some sp ->
        let assignment = Dmw_mechanism.Schedule.assignment s in
        Ok
          (Array.init m (fun j ->
               Some
                 { Agent.winner = assignment.(j); y_star = fp.(j);
                   y_star2 = sp.(j) }))
    | _ -> Ok (Array.make m None)
  in
  let replayed = ref 0 in
  let run_wave (epoch, ids) =
    let* jobs_bids =
      Array.fold_left
        (fun acc j ->
          let* acc = acc in
          match Hashtbl.find_opt subs j with
          | Some bv when Array.length bv = n -> Ok (bv :: acc)
          | Some _ ->
              Error
                ("journaled bids for job " ^ string_of_int j
               ^ " do not match the population size")
          | None ->
              Error
                ("epoch " ^ string_of_int epoch ^ " references job "
               ^ string_of_int j ^ " with no journaled submission"))
        (Ok []) ids
    in
    let jobs_bids = Array.of_list (List.rev jobs_bids) in
    jot (Dmw_wal.Epoch_start { epoch; jobs = ids });
    let* outcomes = exec ~epoch jobs_bids in
    let m = Array.length ids in
    let rec settle_task j =
      if j = m then Ok ()
      else
        let id = ids.(j) in
        let result =
          match outcomes.(j) with
          | Some o ->
              { job = id; epoch; task = j; outcome = Some o; error = None }
          | None ->
              { job = id; epoch; task = j; outcome = None;
                error = Some "wave failed: no consensus" }
        in
        let* () =
          (* A value the crashed process journaled must be reproduced
             exactly; a journaled environmental failure may be healed
             by the replay. *)
          match Hashtbl.find_opt settled id with
          | Some { outcome = Some o1; _ } -> (
              match result.outcome with
              | Some o2 when o1 = o2 -> Ok ()
              | Some _ | None ->
                  Error
                    ("journaled settlement of job " ^ string_of_int id
                   ^ " does not match the replayed epoch "
                   ^ string_of_int epoch))
          | Some { outcome = None; _ } | None -> Ok ()
        in
        (match result.outcome with
        | Some o ->
            jot
              (Dmw_wal.Job_done
                 { job = id; epoch; task = j; winner = o.Agent.winner;
                   y_star = o.Agent.y_star; y_star2 = o.Agent.y_star2 })
        | None ->
            jot
              (Dmw_wal.Job_failed
                 { job = id; epoch; task = j;
                   error = Option.value result.error ~default:"unknown" }));
        Hashtbl.replace settled id result;
        settle_task (j + 1)
    in
    let* () = settle_task 0 in
    jot (Dmw_wal.Epoch_end { epoch });
    incr replayed;
    Ok ()
  in
  let* () =
    List.fold_left
      (fun acc wave ->
        let* () = acc in
        run_wave wave)
      (Ok ()) (unfinished @ fresh_waves)
  in
  (match w with Some jw -> Dmw_wal.sync jw | None -> ());
  let module Metrics = Dmw_obs.Metrics in
  Metrics.bump ~labels:obs_labels "dmw_wal_recoveries_total" 1;
  Metrics.bump ~labels:obs_labels "dmw_wal_recovered_records_total" kept;
  let results =
    Hashtbl.fold (fun _ r acc -> r :: acc) settled []
    |> List.sort (fun a b -> Int.compare a.job b.job)
  in
  Ok
    { n; c; group_bits; seed; w_max; pipeline; max_wave; results; kept;
      replayed = !replayed; next_epoch; next_job = !max_job + 1 }

(* ------------------------------------------------------------------ *)
(* Front door                                                          *)
(* ------------------------------------------------------------------ *)

module Front = struct
  type server = {
    listen_fd : Unix.file_descr;
    path : string;
    accept_thread : Thread.t;
    closing : bool Atomic.t;
  }

  let write_line fd line =
    let s = line ^ "\n" in
    let len = String.length s in
    let rec go off =
      if off < len then
        let k = Unix.write_substring fd s off (len - off) in
        go (off + k)
    in
    go 0

  let result_line (r : job_result) =
    match r.outcome with
    | Some o ->
        Printf.sprintf "result %d epoch=%d task=%d winner=%d ystar=%d ystar2=%d"
          r.job r.epoch r.task o.Agent.winner o.Agent.y_star o.Agent.y_star2
    | None ->
        Printf.sprintf "failed %d %s" r.job
          (Option.value r.error ~default:"unknown")

  let parse_bids s =
    match
      String.split_on_char ',' s
      |> List.map (fun field -> int_of_string_opt (String.trim field))
    with
    | fields when List.for_all Option.is_some fields ->
        Some (Array.of_list (List.filter_map Fun.id fields))
    | _ -> None

  (* Reply tokens queued by the reader, resolved in order by the
     writer. [`Result] blocks the writer in [await] — which is what
     keeps replies in submission order while letting the reader keep
     accepting pipelined submissions for the same wave. *)
  type reply = Line of string | Result of int

  let reader t fd replies () =
    let ic = Unix.in_channel_of_descr fd in
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | exception Sys_error _ -> ()
      | line -> (
          let line = String.trim line in
          if line = "quit" then ()
          else begin
            (if line = "" then ()
             else if line = "stats" then begin
               let s = stats t in
               Mailbox.push replies
                 (Line
                    (Printf.sprintf "stats epochs=%d jobs=%d queue=%d" s.epochs
                       s.jobs s.queue_depth))
             end
             else
               match
                 if String.length line > 7 && String.sub line 0 7 = "submit "
                 then parse_bids (String.sub line 7 (String.length line - 7))
                 else None
               with
               | Some bids -> (
                   match submit t ~bids with
                   | `Accepted id -> Mailbox.push replies (Result id)
                   | `Busy -> Mailbox.push replies (Line "busy")
                   | `Closed -> Mailbox.push replies (Line "error closed")
                   | `Invalid why ->
                       Mailbox.push replies (Line ("error " ^ why)))
               | None ->
                   Mailbox.push replies
                     (Line "error expected: submit w1,...,wn | stats | quit"));
            loop ()
          end)
    in
    loop ();
    Mailbox.close replies

  (* After a failed write the client is gone, but its remaining ids are
     still awaited and their results dropped: each result leaves the
     service only through its one [await]. *)
  let writer t fd replies () =
    let rec loop ~connected =
      match Mailbox.pop replies with
      | None -> ()
      | Some reply ->
          let line =
            match reply with
            | Line s -> s
            | Result id -> (
                match await t id with
                | Some r -> result_line r
                | None -> Printf.sprintf "failed %d service stopped" id)
          in
          let connected =
            connected
            &&
            match write_line fd line with
            | () -> true
            | exception Unix.Unix_error (_, _, _) -> false
          in
          loop ~connected
    in
    loop ~connected:true;
    try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

  let start t ~socket_path =
    (* A client may disconnect before its results are written. The
       default SIGPIPE action would then kill the whole daemon inside
       [write_line]; ignored, the write fails with EPIPE and only that
       client's writer notices. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (try Unix.unlink socket_path with Unix.Unix_error (_, _, _) -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
    Unix.listen listen_fd 16;
    let closing = Atomic.make false in
    let rec accept_loop () =
      match Unix.accept listen_fd with
      | fd, _ ->
          if Atomic.get closing then
            (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
          else begin
            let replies = Mailbox.create () in
            ignore (Thread.create (reader t fd replies) () : Thread.t);
            ignore (Thread.create (writer t fd replies) () : Thread.t);
            accept_loop ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error (_, _, _) -> ()  (* listener closed *)
    in
    { listen_fd; path = socket_path; closing;
      accept_thread = Thread.create accept_loop () }

  let stop s =
    Atomic.set s.closing true;
    (* Closing the fd does not wake a thread blocked in accept(2);
       a throwaway self-connection does. *)
    (let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     (try Unix.connect fd (Unix.ADDR_UNIX s.path)
      with Unix.Unix_error (_, _, _) -> ());
     try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    Thread.join s.accept_thread;
    (try Unix.close s.listen_fd with Unix.Unix_error (_, _, _) -> ());
    try Unix.unlink s.path with Unix.Unix_error (_, _, _) -> ()
end
