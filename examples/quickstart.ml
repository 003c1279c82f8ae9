(* Quickstart: schedule three tasks on six machines with the
   distributed MinWork mechanism.

   Run with: dune exec examples/quickstart.exe *)

open Dmw_core

let () =
  (* Phase I: publish the protocol parameters — a 64-bit Schnorr
     group, pseudonyms for 6 agents, fault bound c = 1, and the bid
     set W = {1, .., 4}. *)
  let params = Params.make_exn ~group_bits:64 ~seed:2024 ~n:6 ~m:3 ~c:1 () in
  Format.printf "%a@.@." Params.pp params;

  (* Each agent's private processing times, already discretized to the
     published bid levels: bids.(i).(j) is agent i's time for task j.
     Here everyone bids truthfully — which Theorem 5 says is the
     rational thing to do. *)
  let bids =
    [| [| 3; 1; 4 |];   (* agent 1 *)
       [| 1; 2; 2 |];   (* agent 2: fastest on task 1 *)
       [| 4; 4; 1 |];   (* agent 3: fastest on task 3 *)
       [| 2; 3; 3 |];
       [| 4; 2; 2 |];
       [| 3; 3; 4 |] |]
  in

  (* Phases II-IV: the agents run one distributed Vickrey auction per
     task over the simulated network; no trusted center is involved. *)
  let result = Dmw_exec.run params ~bids ~seed:7 in
  Format.printf "%a@.@." Dmw_exec.pp_summary result;

  (* The winner of each task is paid the second-lowest bid; truthful
     agents never lose (strong voluntary participation). *)
  let utilities = Dmw_exec.utilities result ~true_levels:bids in
  Array.iteri
    (fun i u -> Format.printf "utility of agent %d: %+.1f@." (i + 1) u)
    utilities;

  (* The run's counters double as a cost profile (Table 1 of the
     paper): DMW exchanges Theta(m n^2) point-to-point messages. *)
  Format.printf "@.per-phase message counts:@.%a@."
    Dmw_sim.Trace.pp_summary result.Dmw_exec.metrics
