(** Message accounting and event tracing.

    {!count} records every point-to-point transmission, with its byte
    size and a [tag] (["share"], ["commitments"], ...), in the run's
    {!Dmw_obs.Metrics} scope; broadcasts count as [n − 1] unicasts, as
    Theorem 11 assumes. A trace keeps the send events, which reproduce
    the Fig. 2 message sequence, and the last send time. *)

type event = {
  time : float;        (** Virtual send time. *)
  src : int;
  dst : int;
  tag : string;
  bytes : int;
  broadcast : bool;    (** True when part of a published message. *)
}

type t

val create : ?keep_events:bool -> unit -> t
(** With [~keep_events:false] (the default for large sweeps) only the
    last send time is kept. *)

val record : t -> event -> unit
val events : t -> event list
(** Chronological (send order); empty unless [keep_events]. *)

val last_time : t -> float
(** Send time of the most recent recorded message (0 when none) —
    the protocol layer uses it as the effective completion time,
    excluding trailing no-op timer events. *)

val count : backend:string -> tag:string -> bytes:int -> unit
(** Count one transmission in the current scope: [dmw_messages_total]
    and [dmw_bytes_total], labelled by backend and tag. *)

val pp_summary : Format.formatter -> Dmw_obs.Metrics.scope -> unit
(** A run's per-tag message and byte table, plus totals. *)

val pp_sequence : max_events:int -> Format.formatter -> t -> unit
(** Fig. 2-style arrow listing ["t=0.003 A2 -> A5 share (96 B)"]. *)
