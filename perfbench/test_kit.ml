(* Unit tests of the benchmark's measurement helpers: percentiles under
   the "10 samples beyond" rule, the rate-ladder search, quartiles as
   Python computes them, the JSON round trip, the trace checks and the
   seeded session schedule. *)

let sorted n = Array.init n (fun i -> float_of_int (i + 1))

let check_pct msg ~n ~p ~value ~p_used =
  let r = Kit.percentile (sorted n) p in
  Alcotest.(check (float 1e-9)) (msg ^ " value") value r.Kit.value;
  Alcotest.(check (float 1e-9)) (msg ^ " p") p_used r.Kit.p;
  Alcotest.(check int) (msg ^ " n") n r.Kit.n

let test_percentile () =
  (* 1000 samples: p99 is rank 990 with exactly 10 beyond. *)
  check_pct "p99 of 1000" ~n:1000 ~p:99. ~value:990. ~p_used:99.;
  (* 200 samples: p95 is rank 190, 10 beyond. *)
  check_pct "p95 of 200" ~n:200 ~p:95. ~value:190. ~p_used:95.;
  (* 100 samples cannot give p99: rank 90 is the highest with 10 beyond. *)
  check_pct "p99 of 100" ~n:100 ~p:99. ~value:90. ~p_used:90.;
  check_pct "median of 100" ~n:100 ~p:50. ~value:50. ~p_used:50.;
  (* Too few samples for any percentile with 10 beyond: the maximum. *)
  check_pct "p50 of 10" ~n:10 ~p:50. ~value:10. ~p_used:100.;
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Kit.percentile [||] 50.).Kit.value)

let test_samples () =
  let s = Kit.samples () in
  List.iter (Kit.add s) [ 3.; 1.; 2.; 1000.; 0.5 ];
  for _ = 1 to 300 do
    Kit.add s 7.
  done;
  Alcotest.(check int) "count" 305 (Kit.count s);
  Alcotest.(check (float 1e-9)) "min first" 0.5 (Kit.to_sorted s).(0);
  Alcotest.(check (float 1e-9)) "max last" 1000. (Kit.to_sorted s).(304);
  Alcotest.(check (float 1e-9)) "sum" (1006.5 +. 2100.) (Kit.sum s)

let test_ladder () =
  let probed = ref [] in
  let probe capacity rate =
    probed := rate :: !probed;
    rate <= capacity
  in
  let best, steps = Kit.ladder_max [ 40.; 10.; 20.; 30.; 50. ] (probe 35.) in
  Alcotest.(check (option (float 0.))) "highest passing" (Some 30.) best;
  Alcotest.(check (list (float 0.))) "ascending, stops at first failure" [ 10.; 20.; 30.; 40. ]
    (List.map (fun s -> s.Kit.rate) steps);
  Alcotest.(check (list bool)) "verdicts" [ true; true; true; false ]
    (List.map (fun s -> s.Kit.passed) steps);
  let best, steps = Kit.ladder_max [ 10.; 20. ] (probe 5.) in
  Alcotest.(check (option (float 0.))) "nothing passes" None best;
  Alcotest.(check int) "one step" 1 (List.length steps);
  let best, _ = Kit.ladder_max [ 10.; 20. ] (probe 100.) in
  Alcotest.(check (option (float 0.))) "everything passes" (Some 20.) best

let test_backlog () =
  let flat = Array.make 40 5. in
  let grew = Kit.backlog_grew ~limit_ms:250. in
  Alcotest.(check bool) "flat latencies" false (grew flat);
  let mixed = Array.init 40 (fun i -> if i mod 4 = 3 then 60. else 3.) in
  Alcotest.(check bool) "slow kinds at the end only" false
    (grew (Array.append mixed (Array.make 10 60.)));
  let growing = Array.init 40 (fun i -> 5. +. (10. *. float_of_int i)) in
  Alcotest.(check bool) "linear growth" true (grew growing);
  Alcotest.(check bool) "too few samples" false (grew [| 1.; 100.; 1000. |])

let test_quartiles () =
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Kit.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9))) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ];
  (* statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0] *)
  let q1, m, q3 = Kit.quartiles [ 5.; 1.; 3. ] in
  Alcotest.(check (list (float 1e-9))) "three values" [ 1.; 3.; 5. ] [ q1; m; q3 ];
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, m, q3 = Kit.quartiles [ 1.; 2. ] in
  Alcotest.(check (list (float 1e-9))) "two values" [ 0.75; 1.5; 2.25 ] [ q1; m; q3 ]

let test_json () =
  let v =
    Kit.Obj
      [ ("a", Kit.Num 1.5); ("b", Kit.Arr [ Kit.Bool true; Kit.Null; Kit.Str "x\"y\n" ]);
        ("c", Kit.Num 0.1234567890123); ("d", Kit.Num 42.) ]
  in
  Alcotest.(check bool) "round trip" true (Kit.parse (Kit.to_string v) = v);
  Alcotest.(check bool) "member" true (Kit.member "d" v = Kit.Num 42.);
  Alcotest.(check bool) "absent member" true (Kit.member "z" v = Kit.Null);
  Alcotest.check_raises "trailing garbage" (Failure "Kit.parse: trailing characters at offset 2")
    (fun () -> ignore (Kit.parse "1 2" : Kit.json))

let test_trace () =
  let t = Trace.create () in
  let span ~parent layer name start_ms end_ms =
    Trace.add_timed t ~group:0 ~parent ~layer name ~start_ms ~end_ms
  in
  let root = span ~parent:Trace.root "bench" "session" 0. 10. in
  let op = span ~parent:root "engine" "expand" 1. 9. in
  let nav = Trace.attribute t ~parent:op ~layer:"navigation" "expand" 6. in
  ignore (Trace.attribute t ~parent:nav ~layer:"solver" "heuristic" 4. : int);
  Alcotest.(check bool) "consistent" true (Trace.check t = Ok ());
  let self l =
    List.find (fun (x : Trace.layer_time) -> x.Trace.layer = l) (Trace.self_by_layer t)
  in
  Alcotest.(check (float 1e-9)) "solver self" 4. (self "solver").Trace.self_ms;
  Alcotest.(check (float 1e-9)) "navigation self" 2. (self "navigation").Trace.self_ms;
  Alcotest.(check (float 1e-9)) "engine self" 2. (self "engine").Trace.self_ms;
  Alcotest.(check (float 1e-9)) "unattributed root self" 2. (self "bench").Trace.self_ms;
  Alcotest.(check (float 1e-9)) "blocking" 10. (Trace.root_total_ms t);
  (* Children adding up to more than their parent fail the check. *)
  ignore (Trace.attribute t ~parent:nav ~layer:"solver" "heuristic" 3. : int);
  Alcotest.(check bool) "overfull" true (Result.is_error (Trace.check t))

let test_schedule () =
  Alcotest.(check (array int)) "zipf counts" [| 22; 11; 7; 6; 4; 4; 3; 3; 2; 2 |]
    (Schedule.zipf_counts ~n:64 ~k:10);
  Alcotest.(check (array int)) "vdc 8" [| 0; 4; 2; 6; 1; 5; 3; 7 |] (Schedule.vdc_order 8);
  Alcotest.(check (array int)) "vdc 5" [| 0; 4; 2; 1; 3 |] (Schedule.vdc_order 5);
  let sched seed = Schedule.zipf_schedule (Bionav_util.Rng.create seed) ~n:64 ~k:10 in
  Alcotest.(check bool) "same seed, same schedule" true (sched 7 = sched 7);
  Alcotest.(check bool) "other seed, other schedule" false (sched 7 = sched 8);
  let s = sched 7 in
  Array.iteri
    (fun q c ->
      let strata =
        List.filter_map (fun (q', j) -> if q' = q then Some j else None) (Array.to_list s)
      in
      Alcotest.(check (list int)) (Printf.sprintf "query %d takes each stratum once" q)
        (List.init c Fun.id) (List.sort Int.compare strata))
    (Schedule.zipf_counts ~n:64 ~k:10);
  (* The first half of the schedule already holds about half of each
     query's sessions. *)
  let half = Array.sub s 0 32 in
  Array.iteri
    (fun q c ->
      let got = Array.fold_left (fun acc (q', _) -> if q' = q then acc + 1 else acc) 0 half in
      Alcotest.(check bool) (Printf.sprintf "query %d spread" q) true (abs ((2 * got) - c) <= 2))
    (Schedule.zipf_counts ~n:64 ~k:10)

let () =
  Alcotest.run "perfbench"
    [ ( "kit",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile;
          Alcotest.test_case "samples" `Quick test_samples;
          Alcotest.test_case "rate ladder" `Quick test_ladder;
          Alcotest.test_case "backlog growth" `Quick test_backlog;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "json" `Quick test_json ] );
      ("trace", [ Alcotest.test_case "self time and checks" `Quick test_trace ]);
      ("schedule", [ Alcotest.test_case "zipf schedule" `Quick test_schedule ]) ]
