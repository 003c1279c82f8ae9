(** Non-simulated execution of the DMW computation.

    Runs the same cryptographic pipeline as the simulated agents
    (via {!Resolution} — literally shared code) but as straight-line
    function calls, for two purposes:

    - a fast reference outcome to cross-check {!Protocol} against;
    - the computational-cost experiment of Table 1: {!agent_cost}
      executes {e exactly one designated agent's} computational
      actions, each in its own {!Dmw_obs.Metrics} scope, yielding
      per-agent modular-multiplication and exponentiation counts that
      can be compared across [n], [m] and group sizes. *)

type outcome = {
  schedule : Dmw_mechanism.Schedule.t;
  first_prices : int array;
  second_prices : int array;
  payments : float array;
}

val run : ?seed:int -> Params.t -> bids:int array array -> outcome
(** Honest execution; identical outcome to a completed
    [Dmw_exec.run] on the same params/bids (asserted by tests). *)

type cost = {
  multiplications : int;  (** Modular multiplications (incl. squarings). *)
  exponentiations : int;  (** Modular exponentiations. *)
  seconds : float;        (** Wall-clock for the agent's work. *)
}

val agent_cost : ?seed:int -> Params.t -> bids:int array array -> agent:int -> cost
(** Cost of one agent's Phase II–IV computations across all [m]
    auctions. Other agents' work is performed outside those scopes. *)

val minwork_cost : bids:float array array -> cost
(** Wall-clock (and zero modular ops) of the centralized MinWork on
    the same instance — the comparison row of Table 1. *)
