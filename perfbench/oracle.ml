(* The centralized reference every settled job is checked against,
   outside the timed window: one Vickrey auction per task with DMW's
   smallest-pseudonym tie-break, and MinWork for one-shot payments. *)

open Dmw_core
module Vickrey = Dmw_mechanism.Vickrey
module Minwork = Dmw_mechanism.Minwork
module Table1 = Dmw_obs.Table1

let tie_break params =
  let rank = Params.pseudonym_rank params in
  Vickrey.Least_key (fun i -> rank.(i))

(* Winner, y* and y** of one task whose bid column is [column]. *)
let task_ok params ~column (o : Agent.task_outcome) =
  let v =
    Vickrey.run ~tie_break:(tie_break params) (Array.map float_of_int column)
  in
  v.Vickrey.winner = o.Agent.winner
  && v.Vickrey.winning_bid = float_of_int o.Agent.y_star
  && v.Vickrey.price = float_of_int o.Agent.y_star2

(* A one-shot run against MinWork, which is the same per-task Vickrey
   auctions: the schedule (every winner), y* and y** of every task, and
   every payment. *)
let run_ok params ~bids (r : Dmw_exec.result) =
  let mw =
    Minwork.run ~tie_break:(tie_break params)
      (Array.map (Array.map float_of_int) bids)
  in
  match (r.Dmw_exec.schedule, r.first_prices, r.second_prices) with
  | Some schedule, Some y1, Some y2 ->
      Dmw_mechanism.Schedule.equal schedule mw.Minwork.schedule
      && Array.for_all2
           (fun (v : Vickrey.outcome) y -> v.winning_bid = float_of_int y)
           mw.Minwork.per_task y1
      && Array.for_all2
           (fun (v : Vickrey.outcome) y -> v.price = float_of_int y)
           mw.Minwork.per_task y2
      && Array.for_all2
           (fun issued expected ->
             match issued with Some p -> p = expected | None -> false)
           r.payments mw.Minwork.payments
  | _ -> false

(* Table 1's closed forms for one protocol instance (a one-shot run or
   a serve epoch) whose tasks resolved at [first_prices]: every auction
   plus one payment report per agent. *)
let predicted_messages ~n ~first_prices =
  Array.fold_left
    (fun acc y_star -> acc + Table1.messages_per_auction ~n ~y_star)
    n first_prices

let predicted_modexps ~n ~first_prices =
  Array.fold_left
    (fun acc y_star -> acc + Table1.modexps_per_auction ~n ~y_star)
    0 first_prices
