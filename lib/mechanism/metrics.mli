(** Mechanism-quality metrics: frugality, overpayment, approximation
    ratios and empirical truthfulness — for MinWork specifically
    (the original API below) and, since the mechanism zoo, for {e any}
    {!Mechanism.S} outcome via {!score} and friends.

    Vickrey payments are second prices, so the mechanism always pays
    at least the winners' true costs; {e frugality} (paper ref. [5],
    Archer–Tardos) asks how much more. For a truthful MinWork run:

    - cost = Σ_j t_{w_j}^j — the winners' true times (which equal the
      winning bids under truth-telling);
    - payment = Σ_j y**_j — the second prices;
    - overpayment = payment − cost ≥ 0, frugality ratio =
      payment / cost ≥ 1.

    The ratio approaches 1 as competition thickens (more machines per
    task): measured by the [frugality] experiment. *)

val allocation_cost : Instance.t -> Schedule.t -> float
(** Total true time of the allocated tasks on their assigned machines
    — what the work "really costs". *)

val overpayment : Instance.t -> Minwork.outcome -> float
(** [total payments − allocation cost]; non-negative under truthful
    bidding. *)

val frugality_ratio : Instance.t -> Minwork.outcome -> float
(** [total payments / allocation cost]. *)

val per_task_margin : Minwork.outcome -> float array
(** For each task, [second price − winning bid] — the winner's rent
    from the competition gap. *)

val record_obs : Instance.t -> Minwork.outcome -> unit
(** Publish quality gauges to {!Dmw_obs.Metrics} (no-op unless the
    root is exporting): [dmw_overpayment], [dmw_frugality_ratio],
    and — on instances small enough for the exact branch and bound —
    [dmw_makespan_ratio], MinWork's makespan over {!Optimal}'s. *)

val competition_gap : bids:float array array -> task:int -> float
(** [second lowest − lowest] bid for a task: the structural source of
    the margin. *)

(** {1 Scoring arbitrary mechanisms} *)

val max_optimal_n : int
(** Instances with at most this many agents (8) get exact
    approximation ratios from {!Optimal}'s branch and bound; larger
    ones report [None] ratios instead of burning exponential time. *)

type score = {
  mechanism : string;
  makespan : float;
  total_work : float;
  makespan_ratio : float option;
      (** makespan / exact optimum; [None] beyond {!max_optimal_n}. *)
  total_payment : float option;  (** [None] for payment-free allocators. *)
  overpayment_ : float option;   (** payment − true allocation cost. *)
  frugality : float option;      (** payment / true allocation cost. *)
}

val score :
  ?optimal:float -> Instance.t -> name:string -> Mechanism.outcome -> score
(** Score one outcome against the true values in the instance
    (payments and schedules are judged at {e true} times even when the
    outcome came from misreported bids). [optimal] lets callers that
    already computed the exact optimum share it; otherwise it is
    computed here when [agents <= max_optimal_n]. *)

val truthfulness_probe :
  ?prng:Dmw_bigint.Prng.t ->
  ?factors:float array ->
  (module Mechanism.S) ->
  Instance.t ->
  (int * float * float) option
(** Misreport sweep via {!Instance.map_agent}: for every agent and
    every scale factor (default
    [{0.25, 0.5, 0.8, 0.9, 1.1, 1.25, 2.0, 4.0}]), rerun the mechanism
    with that agent's whole row scaled while everyone else stays
    truthful, and compare the agent's utility (payment, if any, minus
    {e true} time of its assigned tasks) against truth-telling.
    Randomized mechanisms replay on a {!Dmw_bigint.Prng.copy} of
    [prng], so all deviations face common random coins.

    Returns [Some (agent, factor, gain)] for the largest strictly
    positive gain found — an empirical truthfulness violation — or
    [None] when no probed misreport beats honesty (expected for
    MinWork and utilitarian VCG; {e not} for vcg-makespan, which is
    the measured Nisan–Ronen exhibit). *)
