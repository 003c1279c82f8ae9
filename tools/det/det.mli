(** Determinism-flow analysis over the build's [.cmt] files.

    The replay guarantees the repo ships — chaos consensus-or-clean-abort,
    cross-backend bit-identity, epoch seeds [seed + 7919*(e-1)], and the
    planned crash-resume — all assume the consensus signature, the wire,
    and the audit record are pure functions of (seed, params). This pass
    checks that assumption statically: it tracks values derived from
    nondeterminism sources through the Typedtree, interprocedurally via
    per-function summaries, into determinism-critical sinks.

    {2 Nondeterminism classes (sources)}

    - [wallclock] — [Unix.gettimeofday]/[time]/[gmtime]/[localtime],
      [Sys.time]. Legitimate for timeouts and observability; never for
      protocol payloads.
    - [hashorder] — the result of [Hashtbl.fold]/[iter]/[to_seq] and
      anything a closure running under them computes: hash-bucket order
      is not part of (seed, params).
    - [physeq] — [Obj.repr]/[magic]/[tag], [(==)]/[(!=)],
      [Hashtbl.hash_param]: address-derived values vary run to run.
    - [env] — [Sys.getenv] and friends, [Unix.getpid]/[environment].
    - Unseeded randomness is not a flow class but a use-site rule: any
      application headed by a path mentioning [Random] (including
      [Random.State.make]) is a [D-random] finding where it occurs,
      mirroring the linter's R3 so [dmw_det] can subsume it under
      [lib/] — the sanctioned coin is [Dmw_bigint.Prng] from the run
      seed.

    {2 Sinks and rules}

    - [D-consensus] — [Schedule.create] and construction of the
      [Dmw_exec.result]/[Dmw_exec.info] records, the consensus
      signature's carriers.
    - [D-wire] — [Frame.write], [Messages.Codec.encode],
      [Engine.send]/[publish], [Fabric]/[Endpoint] transmit calls, and
      construction of any [Messages.t] value. ([Fabric.broadcast_epoch]
      is deliberately not a sink: it carries only the epoch-barrier
      counter, and the serve handle threaded into it legitimately holds
      wall-clock fields for deadline accounting.)
    - [D-audit] — [Audit.log]: the typed audit record must replay.
    - [D-seed] — the seeds handed to [Prng.create] and
      [Fault.instantiate]: derivation must be arithmetic on
      (seed, params), never clocks or addresses.
    - [D-obs] — [Trace.record], [Dmw_obs] metrics/span/export calls
      ([Metrics.bump]/[incr]/[set]/[observe], ...).
      Distinct regime: [wallclock] crosses silently (recording wall
      times is the point of the layer), but [hashorder]/[physeq]/[env]
      still corrupt reports and replay diffs.
    - [D-random], [D-annot] (unknown annotation keyword), [stale-det]
      (annotation that suppressed nothing), [cmt] (unreadable input).

    {2 Sanctioned normalization}

    [List.sort]/[Array.sort] (and [sort_uniq]/[stable_sort]) strip the
    [hashorder] class — and only it — so the canonical
    [Hashtbl.fold ... |> List.sort cmp] idiom is clean; application
    spines are re-associated through [@@] and [|>] so the pipeline
    spelling is recognized. Pure predicates and size functions
    ([equal]/[compare]/[length]/[mem]/...) drop all taint. [min]/[max]
    do {e not}: a commutative reduction over an unordered fold is still
    flagged — normalize with a sort instead.

    Residual crossings are excused in place with
    [(* det: <keyword>: reason *)] where the keyword names the regime:
    [wallclock] (a measured duration that is part of the recorded
    outcome, e.g. the backend info record), [timeout] (clock compared
    against a deadline whose expiry takes an audited abort path),
    [obs-only] (value provably confined to observability), [sorted]
    (iteration normalized in a way the analysis cannot see). Unknown
    keywords are [D-annot] findings; annotations that no longer suppress
    anything are [stale-det] findings.

    {2 Known under-approximations}

    No implicit flows (a condition does not taint the branches — which
    is precisely what sanctions the timeout regime structurally); taint
    stored into containers by effectful calls ([Hashtbl.add],
    [Mailbox.push]) is lost; closures stored in records lose their
    parameter-sink summaries; [Hashtbl.iter f tbl] with a named
    (non-literal) [f] loses the element-to-body flow. *)

type violation = Analysis_kit.Report.violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

type input = Analysis_kit.Cmt.input = {
  cmt_path : string;
  rule_path : string option;
  source : string option;
}
(** See {!Analysis_kit.Cmt.input}. *)

val analyze : input list -> violation list
(** Analyze the units together — summaries flow across all of them to a
    fixpoint — and return violations sorted by position. *)

val human : violation list -> string
val to_json : violation list -> string
