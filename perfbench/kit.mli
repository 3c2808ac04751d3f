(** Measurement primitives shared by every workload: a monotonic clock,
    exact percentiles from raw samples, the open-loop rate-ladder search,
    and a small JSON value type with a printer and a parser (the report
    format and the compare mode's input). *)

(** {1 Clock} *)

val now_ms : unit -> float
(** Milliseconds on [CLOCK_MONOTONIC] (via [bechamel.monotonic_clock]).
    System-wide, so spans taken in a forked process share the time base. *)

val time_ms : (unit -> 'a) -> 'a * float

val reference_kernel : unit -> int
(** A fixed computation, about a millisecond of random reads and writes
    over a preallocated buffer, that allocates nothing: its time tracks
    the speed the machine gives this process at the moment it runs,
    independently of the program under test. *)

(** {1 Samples and percentiles} *)

type samples
(** A growable buffer of raw float samples. *)

val samples : unit -> samples
val add : samples -> float -> unit
val count : samples -> int
val to_sorted : samples -> float array
val mean : samples -> float
val sum : samples -> float

type pct = {
  value : float;  (** The sample at the rank that was used. *)
  p : float;  (** The percentile actually reported (<= the one asked for). *)
  n : int;  (** Samples the percentile was taken from. *)
}

val min_beyond : int
(** 10: a percentile is only reported when at least this many samples lie
    strictly beyond its rank. *)

val percentile : float array -> float -> pct
(** [percentile sorted p]: nearest-rank percentile of an ascending array.
    When fewer than {!min_beyond} samples would lie beyond rank
    [ceil (p * n / 100)], the highest percentile that keeps {!min_beyond}
    beyond is reported instead and [p] says which. With
    [n <= min_beyond] the maximum is reported with [p = 100]; with
    [n = 0], [value = nan]. *)

(** {1 Rate ladder} *)

type step = { rate : float; passed : bool }

val ladder_max : float list -> (float -> bool) -> float option * step list
(** [ladder_max rates probe] probes the rates in ascending order and stops
    at the first failure; returns the highest passing rate (if any) and
    the steps run, in order. *)

val backlog_grew : limit_ms:float -> float array -> bool
(** Given one ladder step's latencies in send order: [true] when the
    median of the last quarter exceeds the first quarter's median by more
    than half the latency limit — the queue grew over the step instead
    of draining. (An absolute margin, so that a mix of fast and slow
    request kinds alone never reads as growth.) Fewer than 8 samples
    never count as growth. *)

(** {1 Quartiles (compare mode)} *)

val quartiles : float list -> float * float * float
(** Q1, median, Q3 with the "exclusive" method of Python's
    [statistics.quantiles(values, n=4)]; a single value gives itself
    three times. @raise Invalid_argument on an empty list. *)

(** {1 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** One line, no trailing newline. Floats keep all their digits. *)

val parse : string -> json
(** @raise Failure on malformed input. *)

val member : string -> json -> json
(** Field of an object, [Null] when absent or not an object. *)
