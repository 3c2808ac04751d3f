(** The virtual clock: one interface, a real and a simulated implementation.

    Every time-dependent behavior in the serving stack — session TTLs,
    per-EXPAND deadlines, request timeouts, admission token refill —
    reads time through a [Clock.t] instead of a system clock, so tests
    replace the real clock with a simulated one and control time
    exactly: a deadline expires or a TTL elapses when the test says so,
    and a whole seeded workload replay is deterministic down to the
    timestamp. *)

type t

val real : t
(** Monotonic milliseconds ({!Bionav_util.Timing.now_ms}): never steps,
    so differences of readings are true elapsed times. *)

val simulated : ?start_ms:float -> unit -> t
(** A fresh virtual clock starting at [start_ms] (default 0). Time moves
    only through {!advance}. Each call returns an independent clock. *)

val now_ms : t -> float
(** Current time in milliseconds. *)

val advance : t -> float -> unit
(** Move a simulated clock forward by the given (>= 0) milliseconds.
    @raise Invalid_argument on the real clock or a negative delta. *)
