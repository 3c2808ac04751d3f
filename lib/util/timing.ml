external monotonic_ms : unit -> (float[@unboxed])
  = "bionav_monotonic_ms_byte" "bionav_monotonic_ms"
[@@noalloc]

let now_ms () = monotonic_ms ()

let time f =
  let t0 = monotonic_ms () in
  let result = f () in
  let t1 = monotonic_ms () in
  (result, t1 -. t0)

let time_ms f =
  let (), ms = time f in
  ms

let repeat_ms n f =
  assert (n > 0);
  let t0 = monotonic_ms () in
  for _ = 1 to n do
    f ()
  done;
  (monotonic_ms () -. t0) /. float_of_int n
