(** A circuit breaker over the virtual clock.

    Classic three-state protocol guarding a backend: [Closed] passes
    calls through and counts {e consecutive} failures; at
    [failure_threshold] the circuit trips [Open] and {!allow} rejects
    instantly (no backend pressure, no latency) until [cooldown_ms] of
    {e clock} time — virtual under test, wall in production — has
    elapsed; then one [Half_open] probe is let through, and its outcome
    decides: success re-closes the circuit, failure re-opens it for
    another full cool-down.

    Single-threaded like the rest of the serving stack; state transitions
    happen inside {!allow}, {!record_success} and {!record_failure}.
    Instrumented with [bionav_resilience_breaker_open_total] (trips to
    open) and [bionav_resilience_breaker_rejected_total] (calls rejected
    while open). *)

type config = {
  failure_threshold : int;  (** Consecutive failures that trip the circuit (>= 1). *)
  cooldown_ms : float;  (** Open time before a half-open probe (>= 0). *)
}

val default_config : config
(** 5 consecutive failures, 30 s cool-down. *)

type state = Closed | Open | Half_open

type t

val create : ?config:config -> clock:Clock.t -> unit -> t
(** @raise Invalid_argument if [failure_threshold < 1] or
    [cooldown_ms < 0]. *)

val state : t -> state
(** Current state; reading it performs the time-based [Open] ->
    [Half_open] transition if the cool-down has elapsed. *)

val allow : t -> bool
(** May a call proceed right now? [true] in [Closed] and [Half_open]
    (the probe), [false] in [Open] (counted as rejected). *)

val record_success : t -> unit
(** Report a successful call: resets the failure streak; a half-open
    probe's success closes the circuit. *)

val record_failure : t -> unit
(** Report a failed call: extends the failure streak and trips or
    re-opens the circuit as described above. *)
