(** [dmw_race] — a Typedtree lockset analysis for the DMW tree.

    The ROADMAP's multicore item wants one domain per agent for the
    Θ(mn³) crypto; nothing may run there until every piece of mutable
    state in [lib/] has a proven discipline. This pass consumes the
    [.cmt] files the normal [dune build] produces and checks exactly
    that, the concurrency sibling of [dmw_taint]'s privacy boundary.

    {b Cells} (what is inventoried): every [mutable] record field and
    every module-scope binding or record field holding a shared
    container — [ref], [Hashtbl.t], [Queue.t], [Buffer.t], [array],
    [bytes], [Atomic.t]. Function-local state that never reaches
    module scope is confined by construction and skipped; module
    initialization happens before any thread exists and does not
    count as an access.

    {b Locksets}: an access's lockset is the set of locks lexically
    held — entered via [Mutex_util.with_lock] (a built-in summary:
    acquires its first argument, runs its second under it) or the
    equivalent inline [Mutex.lock l; Fun.protect ~finally:unlock]
    shape. Interprocedural summaries in taint's @param style cover
    wrappers that take a lock (or a closure to run locked) as a
    parameter, and the meet of caller locksets covers helpers only
    ever called under a lock. Lock identity is per global binding or
    per (type, field) — Eraser-style, instance-insensitive.

    {b Classification}: [Atomic.t] cells are safe; a cell whose
    accesses share a non-empty lockset intersection is {e guarded}; a
    cell covered by [(* race: confined <kw>: reason *)] — [<kw>] one
    of [owner], [router], [agent], [sim], [extern], [readonly] — is
    {e confined};
    everything else is a violation:
    - [R-unguarded] — some access holds no lock at all;
    - [R-lockset] — every access is locked but no common lock exists;
    - [R-order] — nested acquisitions form a lock-order cycle;
    - [R-bare] — [Mutex.lock]/[unlock]/[try_lock] outside the
      recognized exception-safe wrapper shape;
    - [R-annot] — unknown confinement keyword;
    - [stale-confine] — an annotation that excused nothing (the same
      rot-proofing as lint's [stale-allow]).

    The linter's R4 rule remains as the fast syntactic pre-filter for
    the roots this pass does not see ([bin]/[bench]/[examples]); under
    [lib/] this pass owns bare-mutex detection via [R-bare]. *)

type violation = Analysis_kit.Report.violation = {
  file : string;  (** the project-relative source path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : string;
      (** ["R-unguarded"], ["R-lockset"], ["R-order"], ["R-bare"],
          ["R-annot"], ["stale-confine"], or ["cmt"] when a [.cmt]
          cannot be analyzed *)
  message : string;
}

type input = Analysis_kit.Cmt.input = {
  cmt_path : string;
  rule_path : string option;
  source : string option;
}
(** See {!Analysis_kit.Cmt.input}. *)

val confined_keywords : string list
(** The sanctioned confinement regimes: ["owner"] (touched only by
    the constructing/joining thread), ["router"] (single I/O thread),
    ["agent"] (per-agent state serialized on its endpoint thread),
    ["sim"] (the single-threaded simulation engine), ["extern"]
    (callers serialize externally), ["readonly"] (written only during
    module or value initialization, read-only afterwards). *)

val analyze : input list -> violation list
(** Analyze a set of compilation units together (summaries are
    interprocedural across the set). Units whose [.cmt] has no
    implementation, or was generated (dune namespace modules), are
    skipped. Violations are sorted by position and deduplicated. *)

val human : violation list -> string
val to_json : violation list -> string
