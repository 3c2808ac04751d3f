open Bionav_util

type t = Real | Simulated of { mutable now_ms : float }

let real = Real

let simulated ?(start_ms = 0.) () = Simulated { now_ms = start_ms }

let now_ms = function Real -> Timing.now_ms () | Simulated s -> s.now_ms

let advance t ms =
  match t with
  | Real -> invalid_arg "Clock.advance: the real clock cannot be advanced"
  | Simulated s ->
      if ms < 0. then invalid_arg "Clock.advance: negative delta";
      s.now_ms <- s.now_ms +. ms
