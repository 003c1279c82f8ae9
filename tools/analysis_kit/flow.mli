(** The interprocedural may-flow engine shared by [dmw_taint] and
    [dmw_det].

    An expression's value carries a set of classes (secret classes for
    taint, nondeterminism classes for det). The engine walks every
    unit's Typedtree forward and reports each concretely-classed value
    that reaches a sink. Every top-level binding gets a summary: its
    return classes with parameters bound to a distinguished ["@param"]
    class (so a sanitizer applied inside the callee visibly kills the
    dependence on the arguments), and the sinks its parameters reach
    (so a leaky helper is reported at the call sites that supply
    tainted values). Summaries iterate to a fixpoint across all units.
    Application spines are re-associated through [@@] and [|>], and
    container HOFs ([List]/[Array] [map], [iter], [fold_left], [sort],
    ...) pass element classes to their closures' parameters.

    Everything that differs between the passes is one {!policy}
    value. *)

type verdict =
  | Clean  (** a sanitizer or declassifier: the result carries nothing *)
  | Source of string  (** the result carries this class only *)
  | Sink of string * string
      (** [(rule, sink)]: the arguments must carry no concrete class;
          the result is clean *)
  | Strips of string  (** the result is the arguments minus this class *)
  | Iterates of string
      (** unordered iteration: closure parameters and the result gain
          this class *)

type field =
  | Cleans  (** the projection carries nothing *)
  | Adds of string  (** the projection gains this class *)
  | Keeps  (** the projection carries what the record carries *)

type 'scope policy = {
  annotations : Analysis_kit.Allow.spec;
      (** the escape hatch: marker, keywords, hygiene rules *)
  hint : string;  (** appended to every flow finding *)
  describe : string -> string;  (** a class, in words *)
  scope_for : string -> 'scope;  (** per-unit settings from the rule path *)
  apply : 'scope -> string * string -> verdict option;
      (** the verdict on applying [(module, name)]; [None] is an ordinary
          call, through the callee's summary *)
  field : 'scope -> unit_name:string -> Types.label_description -> field;
      (** projections and record patterns *)
  msg_rule : string;  (** the rule for building a [Messages.t] value *)
  record_sink : string * string -> (string * string) option;
      (** [(rule, sink)] when building a record of type [(module, t)] is
          a sink *)
  admitted : string -> string list;
      (** classes a rule lets through silently *)
  use_site : Path.t -> (string * string) option;
      (** [(rule, message)] when every application of this callee is a
          finding, whatever flows *)
}

val analyze :
  'scope policy ->
  Analysis_kit.Cmt.input list ->
  Analysis_kit.Report.violation list
(** Run the policy over the units together through
    {!Analysis_kit.Cmt.analyze}. *)
