(** Shared machinery for the project's four static-analysis passes.

    [dmw_lint] (Parsetree, tools/lint) and the three Typedtree passes
    [dmw_taint] (tools/taint), [dmw_det] (tools/det) and [dmw_race]
    (tools/race) share everything that is not the analysis itself:
    violation records and their human/JSON rendering, the
    comment-based escape hatch with its hygiene findings, file-system
    walking and the CLI driver shape. The Typedtree passes also share
    {!Cmt}: loading [.cmt] files, path keys, application spines and
    the fixpoint driver; taint and det further share the flow engine
    ({!Flow}). Keeping these here means the passes cannot drift apart
    in output schema or suppression semantics. *)

module Report : sig
  type violation = {
    file : string;  (** path as scanned *)
    line : int;  (** 1-based *)
    col : int;  (** 0-based *)
    rule : string;  (** rule identifier, e.g. ["R1"] or ["T-msg"] *)
    message : string;
  }

  val by_position : violation -> violation -> int
  (** Order by [file], then [line], then [col]. *)

  val human : violation list -> string
  (** One [file:line:col: [rule] message] line per violation. *)

  val to_json : violation list -> string
  (** JSON array of [{file, line, col, rule, message}] objects — the
      schema shared by every pass (see README "Static analysis"). *)

  val json_escape : string -> string
end

module Allow : sig
  (** The escape-hatch comment scanner. Each pass declares its marker:
      ["lint: allow "], ["taint: declassify "], ["det: "] or
      ["race: confined "]. An occurrence inside a comment (or
      docstring) binds a keyword and anchors at the line where the
      comment {e closes}, covering that line and the one below; one in
      a string literal or in code is not an allowance. Each allowance records
      whether it suppressed anything, so that a stale escape hatch is
      itself a finding. *)

  type t = {
    line : int;  (** anchor: the line where the comment closes *)
    keyword : string;  (** raw keyword as written, unvalidated *)
    mutable used : bool;
  }

  val scan : marker:string -> string -> t list
  (** All occurrences of [marker<keyword>] in the comments of the
      source text, as the OCaml lexer finds them, in file order.
      Keywords are [[a-zA-Z0-9-]+]. *)

  val claim : t list -> keyword_ok:(string -> bool) -> line:int -> bool
  (** Does some allowance whose keyword satisfies [keyword_ok] cover
      [line] (anchor on the line itself or the line above)? Every
      covering allowance is marked {!used}. *)

  type spec = {
    marker : string;
    keywords : string list;  (** the sanctioned keywords *)
    unknown : string * (string -> string);
        (** rule id and message (from the keyword) for an unknown
            keyword *)
    stale : string * (string -> string);
        (** rule id and message for a known keyword that suppressed
            nothing *)
  }
  (** A pass's annotation language. *)

  val hygiene : spec -> file:string -> t list -> Report.violation list
  (** The hygiene findings for a file's allowances, in file order, at
      column 0 of each anchor line. Run it after every claim. *)
end

module Fs : sig
  val collect : ext:string -> string -> string list
  (** Files under a root (file or directory, recursive, sorted) whose
      name ends in [ext]. *)

  val read_file : string -> string
  (** Raises [Sys_error]. *)

  val normalize : string -> string
  (** Backslashes to slashes, strip a leading ["./"]. *)

  val has_prefix : string -> string -> bool

  val find_substring : ?start:int -> string -> string -> int option
end

module Cli : sig
  val main :
    tool:string ->
    ext:string ->
    default_roots:string list ->
    analyze:(string list -> Report.violation list) ->
    unit ->
    'a
  (** Shared driver: parse [--json] and root paths (default
      [default_roots], filtered for existence), exit 2 on a missing
      explicit path, collect files by [ext], run [analyze] on them,
      print human output (with a [tool: N file(s), M violation(s)]
      summary on stderr) or the JSON report, and exit 1 iff there are
      violations. *)
end

module Cmt : sig
  (** The [.cmt] layer shared by the Typedtree passes. *)

  type input = {
    cmt_path : string;  (** compiled [.cmt] to analyze *)
    rule_path : string option;
        (** project-relative path used for scoping and reporting;
            defaults to the [.cmt]'s recorded source file. Tests use it
            to analyze fixtures as if they lived under [lib/...]. *)
    source : string option;
        (** source text for annotation scanning; defaults to reading
            [rule_path] (no annotations if unreadable). *)
  }

  val inputs : string list -> input list
  (** [.cmt] paths as inputs with the recorded source file as rule
      path. *)

  type unit_ = {
    unit_name : string;  (** e.g. ["Agent"] for [Dmw_core__Agent] *)
    rule_path : string;
    structure : Typedtree.structure;
    allows : Allow.t list;
  }

  val comps_of_name : string -> string list
  (** ["Dmw_crypto__Share.t"] and ["Dmw_crypto.Share.t"] both become
      [["Dmw_crypto"; "Share"; "t"]]. *)

  val key_of : unit_name:string -> Path.t -> (string * string) option
  (** The last two components, [(module, name)]; a bare local name is
      qualified with [unit_name]. *)

  val unpoly : Types.type_expr -> Types.type_expr
  (** Peel [Tpoly] wrappers (record fields, annotated lets). *)

  val type_last2 :
    unit_name:string -> Types.type_expr -> (string * string) option
  (** {!key_of} of a type constructor's path. *)

  val sub_exprs : Typedtree.expression -> Typedtree.expression list
  (** Immediate subexpressions, in source order. *)

  val spine :
    unit_name:string ->
    Typedtree.expression ->
    Typedtree.expression
    * (Asttypes.arg_label * Typedtree.expression option) list
  (** Flatten an application spine into its head and arguments,
      re-associating [@@] and [|>], so [Hashtbl.fold f t [] |> List.sort
      cmp] and [Fun.protect ~finally @@ fun () -> ...] read as direct
      applications. *)

  val head_key :
    unit_name:string -> Typedtree.expression -> (string * string) option
  (** {!key_of} of an identifier head, [None] otherwise. *)

  val analyze :
    Allow.spec ->
    changed:bool ref ->
    visit:(emit:bool -> out:Report.violation list ref -> unit_ -> unit) ->
    finish:(Report.violation list ref -> unit) ->
    input list ->
    Report.violation list
  (** The driver. Load every input (an unreadable [.cmt] is a ["cmt"]
      finding; units without an [.ml] source are skipped), then [visit]
      every unit with [~emit:false] while [changed] is set, at most 12
      rounds; then once more with [~emit:true]. A unit whose visit
      raises is a ["cmt"] finding. [finish] adds the pass's whole-program
      findings, {!Allow.hygiene} those of every unit's annotations; the
      result is sorted by position with same-rule duplicates at one
      position removed. *)
end
