(* Seeded session schedules shared by the workloads. *)

open Bionav_util

(* Zipf(1.0) query popularity over the Table I queries (rank 1 = first
   row), stratified: a script set of [n] holds exactly the
   largest-remainder rounding of n * p_i sessions of query i, in a seeded
   order. Every seed then runs the same query mix, and the seed varies
   order and targets — so the spread between seeds measures the program,
   not how often the draw happened to pick the largest query. *)
let zipf_counts ~n ~k =
  let w = Array.init k (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let raw = Array.map (fun x -> float_of_int n *. x /. total) w in
  let counts = Array.map truncate raw in
  let left = ref (n - Array.fold_left ( + ) 0 counts) in
  let order = Array.init k Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare (raw.(b) -. Float.floor raw.(b)) (raw.(a) -. Float.floor raw.(a)))
    order;
  Array.iter
    (fun i ->
      if !left > 0 then begin
        counts.(i) <- counts.(i) + 1;
        decr left
      end)
    order;
  counts

(* Van der Corput order of 0..c-1 (bit-reversed ranks): every prefix of
   it covers the range about evenly. *)
let vdc_order c =
  let bits = ref 0 in
  while 1 lsl !bits < c do
    incr bits
  done;
  let rev i =
    let r = ref 0 in
    for b = 0 to !bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (!bits - 1 - b))
    done;
    !r
  in
  let idx = Array.init c Fun.id in
  Array.stable_sort (fun a b -> Int.compare (rev a) (rev b)) idx;
  idx

(* The session schedule of a script set: (query, stratum) per position.
   Each query's sessions are spread evenly over the schedule from a
   seeded phase, and its k-th session takes stratum [vdc_order c].(k),
   so a run that gets through only a prefix of the set still sees the
   full query mix and a spread of strata. *)
let zipf_schedule rng ~n ~k =
  let counts = zipf_counts ~n ~k in
  let items =
    List.concat
      (List.init k (fun q ->
           let c = counts.(q) in
           let phase = Rng.float rng 1. in
           let strata = vdc_order c in
           List.init c (fun t -> ((float_of_int t +. phase) /. float_of_int c, (q, strata.(t))))))
  in
  Array.of_list (List.map snd (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) items))
