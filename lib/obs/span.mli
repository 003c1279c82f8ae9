(** Hierarchical trace spans.

    A span is a named interval with optional parent and attributes —
    enough to reconstruct the protocol's activity tree

    {v run > task auction > phase{commit, share, resolve, payment} v}

    from a report. Timestamps are whatever clock the caller passes
    ([now]): virtual seconds on the simulator, wall seconds on the
    real-time backends — the recorder does not read any clock itself,
    which is what keeps replayed runs deterministic.

    Spans belong to the {!Metrics} root: they are recorded only while
    it is {!Metrics.exporting}, thread-safely; reading works with the
    switch off. *)

type id
(** Opaque span handle. The null id (returned when recording is
    disabled) makes every subsequent operation on it a no-op. *)

val null : id

val start :
  ?parent:id -> ?attrs:(string * string) list -> name:string -> now:float ->
  unit -> id
(** Open a span at time [now]. *)

val finish : id -> now:float -> unit
(** Close it. Finishing an unknown or already-finished span is a
    no-op. *)

val emit :
  ?parent:id -> ?attrs:(string * string) list -> name:string ->
  t_start:float -> t_stop:float -> unit -> id
(** Record an already-delimited interval in one call — how the
    harness materializes aggregated per-phase spans after a run. *)

type completed = {
  id : int;
  parent : int option;
  name : string;
  attrs : (string * string) list;
  t_start : float;
  t_stop : float;
}

val completed : unit -> completed list
(** All finished spans, ordered by start time (ties: id). Spans still
    open are not reported. *)

val reset : unit -> unit

val overlap : completed -> completed -> float
(** Length of the temporal intersection of two spans (0 when they are
    disjoint). How the tests {e prove} pipelining: at depth > 1 the
    task-auction spans of a run overlap pairwise; at depth 1 they
    don't. *)

val max_concurrency : completed list -> int
(** The peak number of simultaneously open intervals among [spans]
    (0 for the empty list). Back-to-back spans sharing an endpoint do
    not count as concurrent, so a strictly sequential depth-1 run
    reports 1 — the pipeline depth as the trace actually witnessed
    it. *)
