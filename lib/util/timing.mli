(** Elapsed-time measurement for the execution-time experiments (paper
    Figs. 10 and 11), the latency histograms and every timeout.

    Everything here reads one time base, the monotonic clock
    ([clock_gettime(CLOCK_MONOTONIC)]). It never steps (NTP corrections,
    manual clock changes), so a difference of two readings is never
    negative. It is not a calendar date: do not persist or print a
    reading as one. *)

val now_ms : unit -> float
(** Monotonic milliseconds since an arbitrary fixed origin (typically
    boot). Never decreases within a process; meaningful only as the
    difference of two readings — session TTLs, deadlines, idle
    timeouts, lock wait/hold times, evidence decay. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    monotonic time in milliseconds. *)

val time_ms : (unit -> unit) -> float
(** Elapsed monotonic milliseconds of a unit computation. *)

val repeat_ms : int -> (unit -> unit) -> float
(** [repeat_ms n f] runs [f] [n] times and returns the mean elapsed
    monotonic milliseconds per run. Requires [n > 0]. *)
