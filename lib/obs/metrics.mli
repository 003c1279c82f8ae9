(** Zero-dependency metrics registry, scoped per run.

    Monotonic counters, gauges and fixed-bucket histograms, keyed by
    name plus a (sorted) label set. Each run, serve epoch and bench
    measurement records into its own {e scope} ({!scoped}); when the
    scope closes, its series are added to the enclosing one, so an
    outer measurement sees each inner run exactly once. The outermost
    scope is the process-global {e root} that {!Export} reports; it
    records only while {!enable}d (off by default), so outside any
    scope a record call is then one branch and nothing else.

    Thread-safe: cells are {!Atomic}, and each scope's table has its
    own mutex. The recording target is process-wide, not per thread:
    the threads of one run share its scope, and runs overlapping in
    time share whichever scope opened last. *)

type labels = (string * string) list
(** Label set. Order is irrelevant: labels are sorted by key when the
    metric is registered, so [["a","1";"b","2"]] and
    [["b","2";"a","1"]] name the same series. *)

val enable : unit -> unit
val disable : unit -> unit

val exporting : unit -> bool
(** Whether the root records, i.e. the exporters will see new series:
    the switch {!enable} sets; [false] at startup. *)

val reset : unit -> unit
(** Drop every series registered at the root (values {e and}
    registrations). Open scopes are untouched. *)

(** {1 Scopes} *)

type scope
(** One run's series. *)

val scoped : (unit -> 'a) -> 'a * scope
(** [scoped f] runs [f] with a fresh scope as the recording target,
    then closes it, also when [f] raises: its series are added to the
    enclosing scope, which becomes the target again (a late record
    call into the closed scope goes there too). Returns [f]'s result
    and the closed scope, which stays readable. *)

(** {1 Recording}

    A record call lands in the current scope; at the root it is a
    no-op while the root is disabled. *)

val bump : ?labels:labels -> string -> int -> unit
(** [bump name n] adds [n] to the counter [name]/[labels], registering
    it at zero first if needed. [n] must be non-negative: counters are
    monotonic. *)

type counter
(** A counter series looked up once, for call sites too hot for the
    hashed lookup of {!bump} (one per modular multiplication). *)

val counter : ?labels:labels -> string -> counter
(** The handle of a series. Create it once, at module scope: each
    scope caches the cell of every handle incremented in it. *)

val incr : counter -> unit
(** [incr c] adds one to [c]'s series in the current scope. *)

val set : ?labels:labels -> string -> float -> unit
(** [set name v] sets the gauge to [v]. A closing scope passes its
    gauges' last values on to the enclosing scope. *)

val observe : ?labels:labels -> ?edges:float array -> string -> float -> unit
(** [observe name v] records [v] into the histogram, registering it on
    first use with [edges] (default {!Histogram.default_edges}).
    [edges] is only consulted at registration; see {!Histogram} for
    the bucket semantics. *)

(** {1 Histograms} *)

module Histogram : sig
  (** A fixed-bucket histogram over strictly increasing edges
      [e0 < e1 < ... < e(k-1)]:

      - [underflow] counts observations [v < e0];
      - interior bucket [i] (of [k - 1]) counts [e(i) <= v < e(i+1)];
      - [overflow] counts [v >= e(k-1)].

      [sum]/[count] accumulate the raw observations, so a mean is
      recoverable even for under/overflowing values. *)

  val default_edges : float array

  type snapshot = {
    edges : float array;
    underflow : int;
    counts : int array;  (** interior buckets; length [edges - 1] *)
    overflow : int;
    sum : float;
    count : int;
  }

  val merge : snapshot -> snapshot -> snapshot
  (** Pointwise sum. Associative and commutative, with the empty
      histogram over the same edges as identity. Raises
      [Invalid_argument] when the edge arrays differ. *)

  val empty : edges:float array -> snapshot
end

(** {1 Reading}

    Readers take the scope to read, the root by default, and work
    whether or not anything is recording. *)

val counter_value : ?scope:scope -> ?labels:labels -> string -> int
(** Current counter value; [0] for an unregistered series. *)

val total : ?scope:scope -> string -> int
(** A counter summed over every label set it was recorded under. *)

val totals_by : ?scope:scope -> label:string -> string -> (string * int) list
(** A counter summed per value of one of its labels, sorted by that
    value; series without the label are left out. *)

val gauge_value : ?scope:scope -> ?labels:labels -> string -> float option

val histogram_snapshot :
  ?scope:scope -> ?labels:labels -> string -> Histogram.snapshot option

type sample =
  | Counter of { name : string; labels : labels; value : int }
  | Gauge of { name : string; labels : labels; value : float }
  | Hist of { name : string; labels : labels; snapshot : Histogram.snapshot }

val samples : ?scope:scope -> unit -> sample list
(** Every registered series, sorted by name then labels — the stable
    order the exporters emit. *)
