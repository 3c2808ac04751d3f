open Bionav_util

let test_time_returns_result () =
  let v, ms = Timing.time (fun () -> 21 * 2) in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check bool) "non-negative" true (ms >= 0.)

let test_time_measures_work () =
  let _, ms =
    Timing.time (fun () ->
        let acc = ref 0. in
        for i = 1 to 3_000_000 do
          acc := !acc +. sqrt (float_of_int i)
        done;
        ignore !acc)
  in
  Alcotest.(check bool) "measurably positive" true (ms > 0.)

let test_repeat_ms_mean () =
  let ms = Timing.repeat_ms 100 (fun () -> ()) in
  Alcotest.(check bool) "tiny for no-op" true (ms >= 0. && ms < 10.)

(* Durations come from the monotonic clock: back-to-back measurements of
   near-empty work are never negative. *)
let test_elapsed_never_negative () =
  for _ = 1 to 10_000 do
    let (), ms = Timing.time ignore in
    if ms < 0. then Alcotest.failf "time: negative elapsed %g ms" ms;
    let ms = Timing.time_ms ignore in
    if ms < 0. then Alcotest.failf "time_ms: negative elapsed %g ms" ms
  done;
  let ms = Timing.repeat_ms 1_000 ignore in
  Alcotest.(check bool) "repeat_ms non-negative" true (ms >= 0.)

(* [now_ms] is on the same monotonic base: consecutive readings never
   decrease, so durations taken as differences of readings (TTLs,
   cool-downs, lock wait/hold) are never negative. *)
let test_now_ms_never_decreases () =
  let prev = ref (Timing.now_ms ()) in
  for i = 1 to 10_000 do
    let now = Timing.now_ms () in
    if now < !prev then Alcotest.failf "now_ms: reading %d went back %g ms" i (!prev -. now);
    prev := now
  done

let () =
  Alcotest.run "timing"
    [
      ( "unit",
        [
          Alcotest.test_case "returns result" `Quick test_time_returns_result;
          Alcotest.test_case "measures work" `Quick test_time_measures_work;
          Alcotest.test_case "repeat mean" `Quick test_repeat_ms_mean;
          Alcotest.test_case "elapsed never negative" `Quick test_elapsed_never_negative;
          Alcotest.test_case "now_ms never decreases" `Quick test_now_ms_never_decreases;
        ] );
    ]
