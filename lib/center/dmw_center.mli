(** Center-assisted distributed MinWork — the baseline DMW improves on.

    The paper notes (§1.2) that "a faithful implementation of MinWork
    can be obtained using the distributed VCG mechanism in
    [Parkes–Shneidman], [but] their design assumes the existence of a
    center that participates in the mechanism execution, and thus, it
    is not fully distributed." This module implements that baseline in
    the same simulator so the two designs can be measured side by
    side:

    + each agent sends its bid vector to the center (private);
    + the center echoes the full bid matrix to every agent;
    + every agent {e independently} computes the MinWork outcome from
      the echoed matrix and reports it back;
    + the center accepts the outcome iff at least [n − c] reports
      agree (the partition-of-computation + cross-check idea of the
      distributed-VCG construction).

    Costs are Θ(mn) messages and Θ(mn) computation per agent — the
    Table 1 MinWork column. What is lost relative to DMW:

    - {b privacy}: every agent sees every bid;
    - {b trust}: a corrupt center can tamper with the echo. A
      {e consistent} tampering (same altered matrix to everyone) is
      undetectable by the cross-check — the tests demonstrate this
      concretely — whereas an {e inconsistent} echo (partitioning) is
      caught by report disagreement. DMW needs no such trust. *)

type center_behaviour =
  | Honest
  | Tamper of { agent : int; task : int; bid : int }
      (** Echo a consistently falsified matrix: [agent]'s bid for
          [task] replaced by [bid]. Undetectable by the cross-check. *)
  | Partition of { victim : int }
      (** Echo a falsified matrix to [victim] only: inconsistent
          views, caught by report disagreement. *)

type agent_behaviour =
  | Follows
  | Misreports_outcome
      (** Submits a corrupted outcome report (outvoted by the
          cross-check when ≤ c agents do this). *)
  | Silent  (** Never reports — tolerated up to [c] absences. *)

type result = {
  schedule : Dmw_mechanism.Schedule.t option;
      (** The accepted outcome, [None] when the cross-check failed. *)
  payments : float array option;
  agreeing_reports : int;
  metrics : Dmw_obs.Metrics.scope;
      (** The run's closed scope: messages and bytes per tag
          ({!Dmw_sim.Trace.count}, backend ["center"]). *)
}

val run :
  ?center:center_behaviour ->
  ?agents:(int -> agent_behaviour) ->
  ?seed:int ->
  n:int -> m:int -> c:int ->
  int array array ->
  result
(** Requires [n >= 2], matching bid matrix dimensions. The outcome is
    computed with first-index tie-breaking (there are no pseudonyms in
    this design — another privacy difference). *)

val message_count : n:int -> m:int -> int
(** Closed form for the honest run: [n] bid vectors + [n] echoes +
    [n] reports + [n] finalizations = [4n] vector messages; in scalar
    terms Θ(mn). The tests check the run's message count against this
    exactly. *)
