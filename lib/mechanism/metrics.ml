let allocation_cost instance schedule =
  let acc = ref 0.0 in
  for j = 0 to Schedule.tasks schedule - 1 do
    let w = Schedule.agent_of schedule ~task:j in
    acc := !acc +. Instance.time instance ~agent:w ~task:j
  done;
  !acc

let overpayment instance (o : Minwork.outcome) =
  Minwork.total_payment o -. allocation_cost instance o.Minwork.schedule

let frugality_ratio instance (o : Minwork.outcome) =
  Minwork.total_payment o /. allocation_cost instance o.Minwork.schedule

let per_task_margin (o : Minwork.outcome) =
  Array.map
    (fun (v : Vickrey.outcome) -> v.Vickrey.price -. v.Vickrey.winning_bid)
    o.Minwork.per_task

(* Publish the mechanism-quality gauges for one outcome to the
   observability registry: how much the run overpaid (frugality) and
   how far MinWork's makespan sits from the exact optimum. The branch
   and bound is exponential, so the optimum — hence the ratio gauge —
   is only computed on small instances ([max_optimal_n]). *)
let max_optimal_n = 8

let record_obs instance (o : Minwork.outcome) =
  if Dmw_obs.Metrics.exporting () then begin
    Dmw_obs.Metrics.set "dmw_overpayment" (overpayment instance o);
    Dmw_obs.Metrics.set "dmw_frugality_ratio" (frugality_ratio instance o);
    let times = Instance.times instance in
    if Array.length times <= max_optimal_n then begin
      let _, opt = Optimal.run times in
      if opt > 0.0 then
        Dmw_obs.Metrics.set "dmw_makespan_ratio"
          (Schedule.makespan ~times o.Minwork.schedule /. opt)
    end
  end

let competition_gap ~bids ~task =
  let column = Array.map (fun row -> row.(task)) bids in
  Array.sort Float.compare column;
  if Array.length column < 2 then invalid_arg "Metrics.competition_gap: need 2 bids";
  column.(1) -. column.(0)

(* ------------------------------------------------------------------ *)
(* Scoring arbitrary Mechanism.S outcomes                              *)
(* ------------------------------------------------------------------ *)

type score = {
  mechanism : string;
  makespan : float;
  total_work : float;
  makespan_ratio : float option;
  total_payment : float option;
  overpayment_ : float option;
  frugality : float option;
}

let total_of payments = Array.fold_left ( +. ) 0.0 payments

let score ?optimal instance ~name (o : Mechanism.outcome) =
  let times = Instance.times instance in
  let makespan = Schedule.makespan ~times o.Mechanism.schedule in
  let total_work = Schedule.total_work ~times o.Mechanism.schedule in
  let opt =
    match optimal with
    | Some _ as v -> v
    | None ->
        if Instance.agents instance <= max_optimal_n then
          Some (snd (Optimal.run times))
        else None
  in
  let makespan_ratio =
    match opt with
    | Some v when v > 0.0 -> Some (makespan /. v)
    | Some _ | None -> None
  in
  match o.Mechanism.payments with
  | None ->
      { mechanism = name; makespan; total_work; makespan_ratio;
        total_payment = None; overpayment_ = None; frugality = None }
  | Some payments ->
      let paid = total_of payments in
      let cost = allocation_cost instance o.Mechanism.schedule in
      { mechanism = name; makespan; total_work; makespan_ratio;
        total_payment = Some paid;
        overpayment_ = Some (paid -. cost);
        frugality = (if cost > 0.0 then Some (paid /. cost) else None) }

(* ------------------------------------------------------------------ *)
(* Empirical truthfulness: the misreport sweep                         *)
(* ------------------------------------------------------------------ *)

(* race: confined readonly: literal factor table, never written. *)
let default_factors = [| 0.25; 0.5; 0.8; 0.9; 1.1; 1.25; 2.0; 4.0 |]

(* The agent's realized utility when the mechanism ran on (possibly
   misreported) bids while its true values are those of [instance]:
   payment received (0 for payment-free allocators) minus the true
   time of the tasks it was assigned. *)
let realized_utility instance ~agent (o : Mechanism.outcome) =
  let paid =
    match o.Mechanism.payments with Some p -> p.(agent) | None -> 0.0
  in
  let cost = ref 0.0 in
  for j = 0 to Schedule.tasks o.Mechanism.schedule - 1 do
    if Schedule.agent_of o.Mechanism.schedule ~task:j = agent then
      cost := !cost +. Instance.time instance ~agent ~task:j
  done;
  paid -. !cost

let truthfulness_probe ?prng ?(factors = default_factors) (module M : Mechanism.S)
    instance =
  let run_on bids =
    (* Common random coins across deviations: every run replays the
       same prng state, so a randomized mechanism's comparison is not
       polluted by coin noise. *)
    match prng with
    | Some g -> M.run ~prng:(Dmw_bigint.Prng.copy g) bids
    | None -> M.run bids
  in
  let n = Instance.agents instance in
  let truthful_bids = Instance.times instance in
  let honest = run_on truthful_bids in
  let best = ref None in
  for agent = 0 to n - 1 do
    let u_truth = realized_utility instance ~agent honest in
    Array.iter
      (fun factor ->
        if Float.abs (factor -. 1.0) > 1e-12 then begin
          let deviated = Instance.map_agent instance ~agent (fun t -> t *. factor) in
          let o = run_on (Instance.times deviated) in
          let gain = realized_utility instance ~agent o -. u_truth in
          if gain > 1e-9 then
            match !best with
            | Some (_, _, g) when g >= gain -> ()
            | Some _ | None -> best := Some (agent, factor, gain)
        end)
      factors
  done;
  !best
