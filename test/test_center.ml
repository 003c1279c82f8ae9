(* Tests for the center-assisted baseline: correctness, its Θ(mn)
   message profile, and — crucially — the trust gap that motivates DMW:
   a consistently lying center is undetectable. *)

open Dmw_mechanism

let bids = [| [| 3; 2 |]; [| 1; 3 |]; [| 4; 4 |]; [| 2; 1 |]; [| 4; 3 |] |]
let n = 5
let m = 2

let run ?center ?agents () = Dmw_center.run ?center ?agents ~n ~m ~c:1 bids

let reference () = Minwork.run (Array.map (Array.map float_of_int) bids)

let test_honest_matches_minwork () =
  let r = run () in
  let mw = reference () in
  (match r.Dmw_center.schedule with
  | Some s -> Alcotest.(check bool) "schedule" true (Schedule.equal s mw.Minwork.schedule)
  | None -> Alcotest.fail "no outcome");
  (match r.Dmw_center.payments with
  | Some p -> Alcotest.(check (array (float 0.0))) "payments" mw.Minwork.payments p
  | None -> Alcotest.fail "no payments");
  Alcotest.(check int) "all reports agree" n r.Dmw_center.agreeing_reports

let test_message_count_linear () =
  let r = run () in
  Alcotest.(check int) "4n messages"
    (Dmw_center.message_count ~n ~m)
    (Dmw_obs.Metrics.total ~scope:r.Dmw_center.metrics "dmw_messages_total");
  (* Scaling check: messages grow linearly in n (vs DMW's n²). *)
  let count n =
    let bids = Array.make n [| 1; 2 |] in
    let bids = Array.mapi (fun i _ -> [| 1 + (i mod 3); 1 + ((i + 1) mod 3) |]) bids in
    let r = Dmw_center.run ~n ~m:2 ~c:1 bids in
    Dmw_obs.Metrics.total ~scope:r.Dmw_center.metrics "dmw_messages_total"
  in
  Alcotest.(check int) "n=8" 32 (count 8);
  Alcotest.(check int) "n=16 exactly doubles" 64 (count 16)

let test_misreporting_agent_outvoted () =
  let r = run ~agents:(fun i -> if i = 2 then Dmw_center.Misreports_outcome else Dmw_center.Follows) () in
  let mw = reference () in
  (match r.Dmw_center.schedule with
  | Some s ->
      Alcotest.(check bool) "correct outcome survives" true
        (Schedule.equal s mw.Minwork.schedule)
  | None -> Alcotest.fail "no outcome");
  Alcotest.(check int) "n-1 agreeing" (n - 1) r.Dmw_center.agreeing_reports

let test_silent_agent_tolerated () =
  let r = run ~agents:(fun i -> if i = 4 then Dmw_center.Silent else Dmw_center.Follows) () in
  Alcotest.(check bool) "outcome" true (Option.is_some r.Dmw_center.schedule)

let test_too_many_misreporters_block () =
  let r =
    run ~agents:(fun i -> if i < 2 then Dmw_center.Misreports_outcome else Dmw_center.Follows) ()
  in
  (* Only 3 honest reports < n - c = 4: no quorum. *)
  Alcotest.(check bool) "no outcome" true (r.Dmw_center.schedule = None)

let test_partitioning_center_detected () =
  let r = run ~center:(Dmw_center.Partition { victim = 3 }) () in
  (* The victim computed on a different matrix: its report disagrees.
     4 = n - c reports still agree, so the outcome stands, but the
     disagreement is visible. *)
  Alcotest.(check int) "one dissent" (n - 1) r.Dmw_center.agreeing_reports

let test_tampering_center_undetected () =
  (* THE trust gap: the center consistently falsifies agent 1's bid for
     task 0 upward, diverting the task. Every agent computes on the
     same forged matrix, all reports agree, the forged outcome is
     accepted with full unanimity — nothing in the protocol can tell. *)
  let r = run ~center:(Dmw_center.Tamper { agent = 1; task = 0; bid = 9 }) () in
  let mw = reference () in
  (match r.Dmw_center.schedule with
  | Some s ->
      Alcotest.(check bool) "outcome was silently changed" false
        (Schedule.equal s mw.Minwork.schedule);
      (* Task 0's rightful winner (agent 1, bid 1) lost it. *)
      Alcotest.(check bool) "diverted" true (Schedule.agent_of s ~task:0 <> 1)
  | None -> Alcotest.fail "no outcome");
  Alcotest.(check int) "full (false) unanimity" n r.Dmw_center.agreeing_reports

let test_validation () =
  Alcotest.check_raises "one agent"
    (Invalid_argument "Dmw_center.run: need at least two agents") (fun () ->
      ignore (Dmw_center.run ~n:1 ~m:1 ~c:0 [| [| 1 |] |]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Dmw_center.run: bad bid matrix") (fun () ->
      ignore (Dmw_center.run ~n:2 ~m:2 ~c:0 [| [| 1; 2 |]; [| 1 |] |]))

let () =
  Alcotest.run "dmw_center"
    [ ("center-assisted baseline",
       [ Alcotest.test_case "matches MinWork" `Quick test_honest_matches_minwork;
         Alcotest.test_case "Θ(mn) messages" `Quick test_message_count_linear;
         Alcotest.test_case "misreporter outvoted" `Quick test_misreporting_agent_outvoted;
         Alcotest.test_case "silent agent tolerated" `Quick test_silent_agent_tolerated;
         Alcotest.test_case "too many misreporters" `Quick
           test_too_many_misreporters_block;
         Alcotest.test_case "partition detected" `Quick test_partitioning_center_detected;
         Alcotest.test_case "consistent tampering UNDETECTED" `Quick
           test_tampering_center_undetected;
         Alcotest.test_case "validation" `Quick test_validation ]) ]
