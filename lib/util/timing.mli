(** Elapsed-time measurement for the execution-time experiments (paper
    Figs. 10 and 11) and the latency histograms, plus a wall clock for
    timestamps.

    [time], [time_ms] and [repeat_ms] read the monotonic clock
    ([clock_gettime(CLOCK_MONOTONIC)]), which never steps, so the
    durations they return are never negative. {!now_ms} is the wall clock
    and is not meant for durations. *)

val now_ms : unit -> float
(** Wall-clock milliseconds since the epoch, for session timestamps and
    TTLs. It can step (NTP, manual changes); measure durations with the
    functions below instead. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    monotonic time in milliseconds. *)

val time_ms : (unit -> unit) -> float
(** Elapsed monotonic milliseconds of a unit computation. *)

val repeat_ms : int -> (unit -> unit) -> float
(** [repeat_ms n f] runs [f] [n] times and returns the mean elapsed
    monotonic milliseconds per run. Requires [n > 0]. *)
