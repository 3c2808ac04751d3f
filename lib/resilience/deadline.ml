open Bionav_util

type t = { clock : Clock.t; expires_at_ms : float; mutable counted : bool }

let expired_counter = Metrics.counter "bionav_resilience_deadline_expired_total"

let start ~clock ~budget_ms =
  if budget_ms < 0. then invalid_arg "Deadline.start: negative budget";
  { clock; expires_at_ms = Clock.now_ms clock +. budget_ms; counted = false }

let expired t =
  let e = Clock.now_ms t.clock >= t.expires_at_ms in
  if e && not t.counted then begin
    t.counted <- true;
    Metrics.incr expired_counter
  end;
  e
