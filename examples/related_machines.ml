(* Related machines: the paper's future work, executed today.

   §5 names "designing distributed versions of the centralized
   mechanism for scheduling on related machines" as future work. For
   single-parameter agents the winner-take-all rule with threshold
   payments is a Vickrey auction — exactly what one DMW auction
   computes. So a divisible load can be scheduled, fully distributed,
   by chunking it and running DMW with cost-level bids: each chunk's
   auction is one faithful, privacy-preserving Vickrey auction.

   This example schedules a 120-unit load on 6 machines three ways:
   the centralized single-parameter mechanisms (winner-take-all and
   proportional, lib/oneparam), and chunked DMW — and compares
   makespan, payments and trust assumptions.

   Run with: dune exec examples/related_machines.exe *)

open Dmw_core
module One = Dmw_oneparam

let n = 6
let total_load = 120.0

(* Machines' true costs per unit of work, already on the published
   discrete levels (cost level = bid level). *)
let levels = [| 1.0; 2.0; 3.0; 4.0 |]
let true_bids = [| 2; 0; 3; 1; 1; 2 |]
let true_costs = Array.map (fun b -> levels.(b)) true_bids

let print_outcome name ~work ~payments =
  Format.printf "%-24s makespan %7.1f   total payment %7.1f@." name
    (One.makespan ~work ~true_costs)
    (Array.fold_left ( +. ) 0.0 payments)

let () =
  Format.printf "machines (cost per unit): ";
  Array.iter (fun c -> Format.printf "%.0f " c) true_costs;
  Format.printf "@.load: %.0f units@.@." total_load;

  (* --- centralized single-parameter mechanisms ------------------- *)
  Format.printf "=== centralized (trusted auctioneer required) ===@.";
  let wta = One.run (One.winner_take_all ~total:total_load) ~levels ~bids:true_bids in
  print_outcome "winner-take-all" ~work:wta.One.work ~payments:wta.One.payments;
  let prop =
    One.run (One.proportional ~total:total_load ~gamma:2.0) ~levels ~bids:true_bids
  in
  print_outcome "proportional (g=2)" ~work:prop.One.work ~payments:prop.One.payments;

  (* --- distributed: chunked DMW ---------------------------------- *)
  let m = 4 in
  let chunk = total_load /. float_of_int m in
  Format.printf "@.=== distributed: %d DMW chunk auctions (no trusted party) ===@." m;
  let params = Params.make_exn ~group_bits:64 ~seed:8 ~n ~m ~c:1 () in
  (* Every machine bids its cost level on every chunk. Levels are the
     same published set, offset by one because W starts at 1. *)
  let bids = Array.map (fun b -> Array.make m (b + 1)) true_bids in
  let r = Dmw_exec.run ~seed:3 params ~bids ~keep_events:false in
  assert (Dmw_exec.completed r);
  let work = Array.make n 0.0 in
  let payments = Array.make n 0.0 in
  (match (r.Dmw_exec.schedule, r.Dmw_exec.second_prices) with
  | Some s, Some sp ->
      for j = 0 to m - 1 do
        let w = Dmw_mechanism.Schedule.agent_of s ~task:j in
        work.(w) <- work.(w) +. chunk;
        (* The protocol's price is a level index; convert to cost. *)
        payments.(w) <- payments.(w) +. (chunk *. levels.(sp.(j) - 1))
      done
  (* lint: allow partial: example scaffolding — the run above uses the
     honest strategy profile, which always completes. *)
  | _ -> assert false);
  print_outcome "chunked DMW" ~work ~payments;
  Format.printf "  messages: %d, bytes: %d@."
    (Dmw_obs.Metrics.total ~scope:r.Dmw_exec.metrics "dmw_messages_total")
    (Dmw_obs.Metrics.total ~scope:r.Dmw_exec.metrics "dmw_bytes_total");

  Format.printf
    "@.All chunks go to the cheapest machine, matching winner-take-all's@.";
  Format.printf
    "allocation — but computed by the machines themselves, losing costs@.";
  Format.printf
    "kept private, faithfulness enforced by the protocol. The payments@.";
  Format.printf
    "differ: DMW charges the exact second price, while the discrete@.";
  Format.printf
    "threshold payment rounds up to the winner's exit level when a tie@.";
  Format.printf
    "would still break its way — two valid truthful payment rules.@.";

  (* Splitting the chunks among several DMW rounds with capacity limits
     would approximate the proportional rule; that trade-off (makespan
     vs frugality vs trust) is the design space the paper's future-work
     section points at. *)
  assert (One.makespan ~work ~true_costs = One.makespan ~work:wta.One.work ~true_costs)
