open Bionav_util

type config = { failure_threshold : int; cooldown_ms : float }

let default_config = { failure_threshold = 5; cooldown_ms = 30_000. }

type state = Closed | Open | Half_open

type t = {
  config : config;
  clock : Clock.t;
  mutable state : state;
  mutable streak : int;  (* consecutive failures while closed *)
  mutable opened_at_ms : float;
}

let open_counter = Metrics.counter "bionav_resilience_breaker_open_total"
let rejected_counter = Metrics.counter "bionav_resilience_breaker_rejected_total"

let create ?(config = default_config) ~clock () =
  if config.failure_threshold < 1 then
    invalid_arg "Breaker.create: failure_threshold must be >= 1";
  if config.cooldown_ms < 0. then invalid_arg "Breaker.create: cooldown_ms must be >= 0";
  { config; clock; state = Closed; streak = 0; opened_at_ms = 0. }

(* The only time-based transition: an open circuit becomes half-open once
   the cool-down has elapsed on the (possibly virtual) clock. *)
let refresh t =
  match t.state with
  | Open when Clock.now_ms t.clock -. t.opened_at_ms >= t.config.cooldown_ms ->
      t.state <- Half_open
  | Open | Closed | Half_open -> ()

let state t =
  refresh t;
  t.state

let allow t =
  refresh t;
  match t.state with
  | Closed | Half_open -> true
  | Open ->
      Metrics.incr rejected_counter;
      false

let trip t =
  t.state <- Open;
  t.streak <- 0;
  t.opened_at_ms <- Clock.now_ms t.clock;
  Metrics.incr open_counter;
  Logs.debug (fun m -> m "breaker: open for %.0f ms" t.config.cooldown_ms)

let record_success t =
  refresh t;
  match t.state with
  | Half_open ->
      t.state <- Closed;
      t.streak <- 0
  | Closed -> t.streak <- 0
  | Open -> ()

let record_failure t =
  refresh t;
  match t.state with
  | Half_open -> trip t (* the probe failed: another full cool-down *)
  | Closed ->
      t.streak <- t.streak + 1;
      if t.streak >= t.config.failure_threshold then trip t
  | Open -> ()
