(* The concurrent building blocks (Mailbox, the shared Timer) and the
   threads backend of Dmw_exec: the same agent state machine on real
   threads must reproduce the simulator's outcome bit-for-bit, and
   deviations must fail the same way. Outcomes are deterministic even
   though interleavings are not — that is the point. *)

open Dmw_core
module Mailbox = Dmw_runtime.Mailbox
module Timer = Dmw_runtime.Timer

let params = Params.make_exn ~group_bits:64 ~seed:3 ~n:5 ~m:2 ~c:1 ()
let bids = [| [| 3; 2 |]; [| 1; 3 |]; [| 3; 3 |]; [| 2; 1 |]; [| 3; 2 |] |]

let run_threads ?strategies ?(timeout = 20.0) ?batching ?hardened () =
  Dmw_exec.run ?strategies ?batching ?hardened ~seed:7 params ~bids
    ~keep_events:false
    ~backend:(Dmw_exec.threads ~timeout ())

let run_sim ?batching ?hardened () =
  Dmw_exec.run ?batching ?hardened ~seed:7 params ~bids ~keep_events:false

let check_same_outcome label (a : Dmw_exec.result) (b : Dmw_exec.result) =
  (match (a.Dmw_exec.schedule, b.Dmw_exec.schedule) with
  | Some x, Some y ->
      Alcotest.(check bool)
        (label ^ ": same schedule")
        true
        (Dmw_mechanism.Schedule.equal x y)
  | _ -> Alcotest.fail (label ^ ": missing schedule"));
  Alcotest.(check bool)
    (label ^ ": same prices")
    true
    (a.Dmw_exec.first_prices = b.Dmw_exec.first_prices
    && a.Dmw_exec.second_prices = b.Dmw_exec.second_prices);
  Alcotest.(check bool)
    (label ^ ": same payments")
    true
    (a.Dmw_exec.payments = b.Dmw_exec.payments)

(* ------------------------------------------------------------------ *)
(* Threads backend                                                     *)

let test_concurrent_matches_simulated () =
  let sim = run_sim () in
  let live = run_threads () in
  Alcotest.(check bool) "sim completed" true (Dmw_exec.completed sim);
  Alcotest.(check bool) "live completed" true (Dmw_exec.completed live);
  Alcotest.(check string) "backend name" "threads" live.Dmw_exec.backend;
  check_same_outcome "threads vs sim" sim live

let test_concurrent_outcome_stable_across_runs () =
  (* Thread interleavings differ run to run; outcomes must not. *)
  let runs = List.init 3 (fun _ -> run_threads ()) in
  match runs with
  | first :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "completed" true (Dmw_exec.completed r);
          check_same_outcome "stable" first r)
        rest
  | [] -> assert false

let test_concurrent_detects_deviation () =
  let r =
    run_threads ~timeout:5.0
      ~strategies:(fun i ->
        if i = 2 then Strategy.Corrupt_commitments else Strategy.Suggested)
      ()
  in
  Alcotest.(check bool) "not completed" false (Dmw_exec.completed r);
  Alcotest.(check bool) "blamed dealer 2" true
    (Array.exists
       (fun (s : Dmw_exec.agent_status) ->
         match s.Dmw_exec.aborted with
         | Some (Audit.Bad_share { dealer }) -> dealer = 2
         | _ -> false)
       r.Dmw_exec.statuses)

let test_concurrent_disclosure_fallback () =
  (* The withholding discloser triggers the real-time timeout path. *)
  let r =
    run_threads ~timeout:15.0
      ~strategies:(fun i ->
        if i = 0 then Strategy.Withhold_disclosure else Strategy.Suggested)
      ()
  in
  Alcotest.(check bool) "completed despite withholding" true (Dmw_exec.completed r)

let test_concurrent_batching_parity () =
  (* ~batching must produce the plain outcome on the threads backend
     too, and actually batch (fewer recorded envelopes). *)
  let plain = run_threads () in
  let batched = run_threads ~batching:true () in
  Alcotest.(check bool) "both completed" true
    (Dmw_exec.completed plain && Dmw_exec.completed batched);
  check_same_outcome "batched vs plain" plain batched;
  Alcotest.(check bool) "fewer envelopes" true
    (Test_support.run_messages batched
    < Test_support.run_messages plain)

let test_concurrent_hardened_parity () =
  let hardened = run_threads ~hardened:true () in
  Alcotest.(check bool) "completed" true (Dmw_exec.completed hardened);
  check_same_outcome "hardened vs sim" (run_sim ()) hardened

(* ------------------------------------------------------------------ *)
(* Mailbox                                                             *)

let test_mailbox_basics () =
  let box = Mailbox.create () in
  Mailbox.push box 1;
  Mailbox.push box 2;
  Alcotest.(check int) "length" 2 (Mailbox.length box);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Mailbox.pop box);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Mailbox.pop box);
  Alcotest.(check (option int)) "timeout empty" None
    (Mailbox.pop ~timeout:0.02 box)

let test_mailbox_cross_thread () =
  let box = Mailbox.create () in
  let producer =
    Thread.create
      (fun () ->
        Thread.delay 0.01;
        Mailbox.push box 42)
      ()
  in
  (* Blocking pop must wake when the producer pushes. *)
  Alcotest.(check (option int)) "received" (Some 42)
    (Mailbox.pop ~timeout:2.0 box);
  Thread.join producer

let test_mailbox_close_drains_then_stops () =
  let box = Mailbox.create () in
  Mailbox.push box 1;
  Mailbox.close box;
  (* Queued elements survive the close... *)
  Alcotest.(check (option int)) "drained" (Some 1) (Mailbox.pop box);
  (* ...then pops return None without blocking... *)
  Alcotest.(check (option int)) "closed" None (Mailbox.pop box);
  (* ...and later pushes are dropped. *)
  Mailbox.push box 2;
  Alcotest.(check (option int)) "push after close dropped" None (Mailbox.pop box)

let test_mailbox_close_wakes_blocked_pop () =
  let box : int Mailbox.t = Mailbox.create () in
  let result = ref (Some 0) in
  let consumer = Thread.create (fun () -> result := Mailbox.pop box) () in
  Thread.delay 0.02;
  Mailbox.close box;
  Thread.join consumer;
  Alcotest.(check (option int)) "woken with None" None !result

(* ------------------------------------------------------------------ *)
(* Timer                                                               *)

let test_timer_fires_in_deadline_order () =
  let t = Timer.create () in
  let box = Mailbox.create () in
  (* Scheduled out of order; must fire by deadline. *)
  Timer.schedule t ~delay:0.06 (fun () -> Mailbox.push box 3);
  Timer.schedule t ~delay:0.02 (fun () -> Mailbox.push box 1);
  Timer.schedule t ~delay:0.04 (fun () -> Mailbox.push box 2);
  Alcotest.(check (option int)) "first" (Some 1) (Mailbox.pop ~timeout:2.0 box);
  Alcotest.(check (option int)) "second" (Some 2) (Mailbox.pop ~timeout:2.0 box);
  Alcotest.(check (option int)) "third" (Some 3) (Mailbox.pop ~timeout:2.0 box);
  Alcotest.(check int) "nothing pending" 0 (Timer.pending t);
  Timer.shutdown t

let test_timer_shutdown_drops_pending () =
  let t = Timer.create () in
  let fired = ref false in
  Timer.schedule t ~delay:30.0 (fun () -> fired := true);
  Alcotest.(check int) "pending" 1 (Timer.pending t);
  Timer.shutdown t;
  Alcotest.(check int) "dropped" 0 (Timer.pending t);
  Alcotest.(check bool) "never fired" false !fired;
  (* Scheduling after shutdown is a no-op, and shutdown is idempotent. *)
  Timer.schedule t ~delay:0.001 (fun () -> fired := true);
  Alcotest.(check int) "no-op after shutdown" 0 (Timer.pending t);
  Timer.shutdown t

let test_timer_single_thread_many_ticks () =
  (* One timer serves many concurrent schedulers without spawning
     per-tick threads; all callbacks must arrive. *)
  let t = Timer.create () in
  let box = Mailbox.create () in
  let producers =
    List.init 4 (fun k ->
        Thread.create
          (fun () ->
            for i = 0 to 24 do
              Timer.schedule t
                ~delay:(0.001 *. float_of_int (i mod 5))
                (fun () -> Mailbox.push box (k * 100 + i))
            done)
          ())
  in
  List.iter Thread.join producers;
  let received = ref 0 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while !received < 100 && Unix.gettimeofday () < deadline do
    match Mailbox.pop ~timeout:0.5 box with
    | Some _ -> incr received
    | None -> ()
  done;
  Alcotest.(check int) "all 100 ticks delivered" 100 !received;
  Timer.shutdown t

let test_timer_concurrent_shutdown () =
  (* Regression for the unguarded [t.thread] handle: shutdown racing
     shutdown (or the tail of create) must join the timer thread
     exactly once — the handle is taken under the timer's own mutex.
     Churn through enough timers to give the race a chance. *)
  for _ = 1 to 50 do
    let t = Timer.create () in
    Timer.schedule t ~delay:10.0 (fun () -> ());
    let stoppers =
      List.init 3 (fun _ -> Thread.create (fun () -> Timer.shutdown t) ())
    in
    List.iter Thread.join stoppers;
    Alcotest.(check int) "pending dropped" 0 (Timer.pending t)
  done

let () =
  Alcotest.run "dmw_runtime"
    [ ("mailbox",
       [ Alcotest.test_case "fifo and timeout" `Quick test_mailbox_basics;
         Alcotest.test_case "cross-thread" `Quick test_mailbox_cross_thread;
         Alcotest.test_case "close drains then stops" `Quick
           test_mailbox_close_drains_then_stops;
         Alcotest.test_case "close wakes blocked pop" `Quick
           test_mailbox_close_wakes_blocked_pop ]);
      ("timer",
       [ Alcotest.test_case "deadline order" `Quick test_timer_fires_in_deadline_order;
         Alcotest.test_case "shutdown drops pending" `Quick
           test_timer_shutdown_drops_pending;
         Alcotest.test_case "many ticks, one thread" `Quick
           test_timer_single_thread_many_ticks;
         Alcotest.test_case "concurrent shutdown joins once" `Quick
           test_timer_concurrent_shutdown ]);
      ("concurrent protocol",
       [ Alcotest.test_case "matches simulator" `Quick test_concurrent_matches_simulated;
         Alcotest.test_case "stable across interleavings" `Slow
           test_concurrent_outcome_stable_across_runs;
         Alcotest.test_case "deviation detected" `Quick test_concurrent_detects_deviation;
         Alcotest.test_case "disclosure fallback in real time" `Slow
           test_concurrent_disclosure_fallback;
         Alcotest.test_case "batching parity" `Slow test_concurrent_batching_parity;
         Alcotest.test_case "hardened parity" `Slow test_concurrent_hardened_parity ]) ]
