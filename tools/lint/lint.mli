(** [dmw_lint] — project-specific static analysis for the DMW tree.

    The OCaml type system does not see the invariants DMW's
    faithfulness argument rests on; this linter enforces the curated
    subset that has bitten (or nearly bitten) the implementation:

    - {b R1} raw [Bigint]/[Nat] arithmetic outside [lib/bigint] and
      [lib/modular] — exponents live in Z_q, group elements in Z_p,
      and mixing the two silently breaks degree resolution in the
      exponent. Field arithmetic must flow through [Zmod]/[Group].
    - {b R2} polymorphic [=]/[<>]/[==]/[compare]/[Hashtbl.hash] in
      [lib/crypto], [lib/modular] and [lib/core] where a typed
      equality exists: structural comparison of commitments or group
      elements bypasses the typed [equal] functions, and comparing
      options with [= None] should be [Option.is_none].
    - {b R3} [Stdlib.Random] anywhere outside [lib/bigint/prng.ml]:
      crypto randomness must flow through the seeded PRNG so runs are
      reproducible and the seeding convention stays backend-agnostic.
    - {b R4} bare [Mutex.lock]/[Mutex.unlock] in [lib/runtime],
      [lib/net] and [lib/exec] outside the blessed
      [Dmw_runtime.Mutex_util.with_lock] — a missed unlock on an
      exception path deadlocks a whole run.
    - {b R5} wildcard [_] arms in matches over [Messages.t] in the
      agent/exec/net handlers: a new message constructor must force
      every handler to be revisited, not silently fall into a
      catch-all.
    - {b R6} partial stdlib calls ([List.hd], [List.tl],
      [Option.get], [failwith], [assert false]) anywhere in the
      scanned tree; protocol code uses typed errors or documents the
      invariant with the escape hatch.
    - {b R7} bare [Printf.printf]/[Printf.eprintf] in [lib/] outside
      the [Dmw_obs] sinks ([lib/obs]): library code reports through
      the metrics registry and its exporters, not ad-hoc console
      writes — benches, binaries and examples print freely.
    - {b R8} [Dmw_obs.Metrics.enable]/[disable]/[reset] or
      [Dmw_obs.Span.reset] in [lib/]: library code counts into the
      scope of the run it serves; only binaries, benches and tests
      choose what the process-global root records and exports.

    Escape hatch: a comment [(* lint: allow <kw>: reason *)] closing
    on the flagged line or the line above suppresses one rule there —
    the justification may span several lines; the allowance anchors
    where the comment closes. [<kw>] is one of [bigint-arith],
    [poly-eq], [random], [mutex], [wildcard], [partial], [printf],
    [obs-root] (or a literal rule id [R1]..[R8]).

    An escape hatch that suppresses nothing — the code it excused was
    deleted, or the keyword is unknown — is itself reported as
    [stale-allow], so allowances cannot rot in place. *)

type violation = Analysis_kit.Report.violation = {
  file : string;  (** path as scanned *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : string;
      (** ["R1"].. ["R8"], ["stale-allow"] for a dead escape hatch, or
          ["parse"] on a syntax error *)
  message : string;
}

val lint_file : ?rule_path:string -> string -> violation list
(** Lint one [.ml] file. [rule_path] is the project-relative path used
    to decide which rules apply (defaults to the file path itself) —
    tests use it to lint fixture files as if they lived under
    [lib/...]. Violations are sorted by position. A file that does not
    parse yields a single ["parse"] violation. *)

val human : violation list -> string
(** One [file:line:col: [rule] message] line per violation. *)

val to_json : violation list -> string
(** JSON array of [{file, line, col, rule, message}] objects. *)
