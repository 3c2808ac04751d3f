(** A process-wide registry of named counters, gauges and latency
    histograms.

    The paper's execution-time experiments (Figs. 10 and 11) measure
    per-EXPAND latency offline; a serving system needs the same numbers
    always-on. Subsystems register metrics by name at module
    initialization and record into them on the hot path; the web app's
    [/metrics] route and the CLI's [--metrics] flag render one plaintext
    dump of everything.

    Design constraints:

    - {b One registry per process.} Two lookups of the same name return
      the same metric, so call sites never thread handles around.
    - {b No allocation on the hot path.} Counters bump an [Atomic.t];
      histograms bump preallocated [int]/[float] arrays. Creation
      (registry lookup) allocates and takes the registry mutex; keep it
      at module top level.
    - {b Fixed-bucket histograms.} Observations land in a bucket of a
      fixed, sorted bound array (default: log-spaced 0.01 ms - 10 s), so
      recording is O(buckets) worst case with no stored samples;
      percentiles are linearly interpolated within the winning bucket.
    - {b One recording domain.} Histograms are plain single-writer
      records: every recorder is the one domain that serves the engine
      (DESIGN.md §11), so [observe] takes no lock and no atomic.
      Counters and gauges are atomics ([add] is a CAS loop), because a
      bench samples gauges from its own domain while its server domain
      runs. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create. @raise Invalid_argument if the name is malformed
    (empty, or containing spaces, quotes, braces or newlines) or already
    registered as a different metric kind. *)

val gauge : string -> gauge
(** Find-or-create; same naming rules as {!counter}. *)

val histogram : ?buckets:float array -> string -> histogram
(** Find-or-create; [buckets] are strictly increasing upper bounds (an
    implicit overflow bucket is appended) and default to
    {!default_latency_buckets}. On a second lookup of an existing
    histogram the [buckets] argument is ignored. *)

val default_latency_buckets : float array
(** Log-spaced milliseconds: 0.01, 0.025, 0.05, ... 5000, 10000. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1; must be >= 0). *)

val value : counter -> int

val set : gauge -> float -> unit

val add : gauge -> float -> unit
(** Adjust a gauge by a (possibly negative) delta — the idiom for
    level-style gauges maintained incrementally (queue depths, in-flight
    work) where recomputing the absolute value on every transition would
    cost a scan. *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one observation (e.g. a latency in milliseconds). *)

val count : histogram -> int
val sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0, 100], estimated from the buckets:
    linear interpolation between the winning bucket's bounds (the first
    bucket interpolates from 0, the overflow bucket up to the maximum
    observation). 0 when the histogram is empty. *)

val dump : unit -> string
(** Plaintext rendering of every registered metric, sorted by name, in a
    Prometheus-like format: counters and gauges as [name value] lines,
    histograms as [name_count], [name_sum] and
    [name{quantile="0.5|0.95|0.99"}] lines. *)

val reset : unit -> unit
(** Zero every registered metric (registrations survive). For tests. *)
