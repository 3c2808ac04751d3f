(** Per-peer admission control for the serving tier.

    A token bucket per remote peer ([rate] tokens/second, capacity
    [burst]) gates every parsed request before its handler runs, so one
    greedy client cannot starve polite ones.

    Decisions are pure bucket arithmetic on the injected
    {!Bionav_resilience.Clock}, so tests drive refill deterministically
    with a simulated clock. A shed decision increments the
    [bionav_serve_shed_rate_limited_total] counter as a side effect; the
    caller renders the 503. *)

type config = {
  rate : float;  (** Per-peer refill, tokens/second. [0.] disables the bucket. *)
  burst : int;  (** Bucket capacity (initial tokens for a new peer). *)
}

val default_config : config
(** [{ rate = 0.; burst = 64 }] — bucket off. *)

type t

type decision =
  | Admit  (** Request admitted. *)
  | Shed_rate_limited  (** Peer's bucket is empty — respond 503. *)

val create : ?clock:Bionav_resilience.Clock.t -> config -> t
(** Raises [Invalid_argument] on [rate < 0.] or [burst < 1]. The clock
    defaults to {!Clock.real}. *)

val admit : t -> peer:string -> decision
(** Charge one token to [peer]'s bucket. Only [Admit] consumes one; a
    shed decision leaves all state untouched except the shed counter.
    Called only from the poll loop; not synchronized. *)

val peek_tokens : t -> peer:string -> float
(** [peer]'s token balance after refill at the clock's current time —
    observability for tests; does not consume anything. *)

val shed_rate_limited_total : string
(** Metric name incremented on [Shed_rate_limited]. *)
