(** The virtual clock: one interface, a real and a simulated implementation.

    Every time-dependent behavior in the serving stack — session TTLs,
    retry backoff sleeps, circuit-breaker cool-downs, per-EXPAND
    deadlines — reads time through a [Clock.t] instead of a system
    clock, so tests and the chaos harness replace the real clock with a
    simulated one and control time exactly: a "sleep"
    advances the virtual clock instantly, a cool-down elapses when the
    test says so, and a whole fault-injected workload replay is
    deterministic down to the timestamp. *)

type t

val real : t
(** Monotonic milliseconds ({!Bionav_util.Timing.now_ms}): never steps,
    so differences of readings are true elapsed times. [sleep_ms] blocks
    the calling thread for real. *)

val simulated : ?start_ms:float -> unit -> t
(** A fresh virtual clock starting at [start_ms] (default 0). Time moves
    only through {!advance} and {!sleep_ms} (which advances instantly
    instead of blocking). Each call returns an independent clock. *)

val now_ms : t -> float
(** Current time in milliseconds. *)

val sleep_ms : t -> float -> unit
(** Wait for the given number of milliseconds: blocks on the real clock,
    advances instantly on a simulated one. Non-positive durations are a
    no-op. *)

val advance : t -> float -> unit
(** Move a simulated clock forward by the given (>= 0) milliseconds.
    @raise Invalid_argument on the real clock or a negative delta. *)

val is_simulated : t -> bool
