open Bionav_util
open Bionav_core

let make_nav n_results =
  let h = Bionav_mesh.Hierarchy.of_parents [| -1; 0 |] in
  Nav_tree.build ~hierarchy:h
    ~attachments:[ (1, Docset.of_list (List.init n_results Fun.id)) ]
    ~total_count:(fun _ -> 1000)

let test_builds_once_per_query () =
  let calls = ref 0 in
  let cache =
    Nav_cache.create
      ~build:(fun q ->
        incr calls;
        make_nav (String.length q))
      ()
  in
  let a = Nav_cache.get cache "prothymosin" in
  let b = Nav_cache.get cache "prothymosin" in
  Alcotest.(check int) "one build" 1 !calls;
  Alcotest.(check bool) "same tree" true (a == b)

let test_normalizes_queries () =
  let calls = ref 0 in
  let cache =
    Nav_cache.create
      ~build:(fun q ->
        incr calls;
        make_nav (String.length (String.trim q)))
      ()
  in
  ignore (Nav_cache.get cache "Prothymosin");
  ignore (Nav_cache.get cache "  prothymosin  ");
  ignore (Nav_cache.get cache "PROTHYMOSIN");
  Alcotest.(check int) "normalized to one key" 1 !calls

let test_distinct_queries_build_separately () =
  let calls = ref 0 in
  let cache =
    Nav_cache.create
      ~build:(fun q ->
        incr calls;
        make_nav (String.length q))
      ()
  in
  ignore (Nav_cache.get cache "alpha");
  ignore (Nav_cache.get cache "beta");
  Alcotest.(check int) "two builds" 2 !calls

let test_capacity_bound () =
  let calls = ref 0 in
  let cache =
    Nav_cache.create ~capacity:2
      ~build:(fun q ->
        incr calls;
        make_nav (String.length q))
      ()
  in
  ignore (Nav_cache.get cache "a");
  ignore (Nav_cache.get cache "b");
  ignore (Nav_cache.get cache "c");
  (* "a" evicted: rebuilding it is a new call. *)
  ignore (Nav_cache.get cache "a");
  Alcotest.(check int) "four builds" 4 !calls

let test_hit_rate () =
  let cache = Nav_cache.create ~build:(fun q -> make_nav (String.length q)) () in
  Alcotest.(check (float 1e-9)) "empty" 0. (Nav_cache.hit_rate cache);
  ignore (Nav_cache.get cache "q");
  ignore (Nav_cache.get cache "q");
  ignore (Nav_cache.get cache "q");
  Alcotest.(check (float 1e-9)) "2/3" (2. /. 3.) (Nav_cache.hit_rate cache);
  Alcotest.(check int) "hits" 2 (Nav_cache.hits cache);
  Alcotest.(check int) "misses" 1 (Nav_cache.misses cache)

let test_hit_rate_spans_normalized_variants () =
  let cache = Nav_cache.create ~build:(fun q -> make_nav (String.length q)) () in
  let a = Nav_cache.get cache "  Cancer " in
  let b = Nav_cache.get cache "cancer" in
  Alcotest.(check bool) "one entry" true (a == b);
  Alcotest.(check int) "variant was a hit" 1 (Nav_cache.hits cache);
  Alcotest.(check int) "one miss" 1 (Nav_cache.misses cache);
  Alcotest.(check (float 1e-9)) "hit rate 1/2" 0.5 (Nav_cache.hit_rate cache)

let test_eviction_counter () =
  let cache = Nav_cache.create ~capacity:1 ~build:(fun q -> make_nav (String.length q)) () in
  ignore (Nav_cache.get cache "a");
  Alcotest.(check int) "no evictions" 0 (Nav_cache.evictions cache);
  ignore (Nav_cache.get cache "b");
  Alcotest.(check int) "one eviction" 1 (Nav_cache.evictions cache)

let test_clear () =
  let calls = ref 0 in
  let cache =
    Nav_cache.create
      ~build:(fun q ->
        incr calls;
        make_nav (String.length q))
      ()
  in
  ignore (Nav_cache.get cache "q");
  Nav_cache.clear cache;
  ignore (Nav_cache.get cache "q");
  Alcotest.(check int) "rebuilt after clear" 2 !calls

let test_clear_resets_counters () =
  let cache = Nav_cache.create ~capacity:1 ~build:(fun q -> make_nav (String.length q)) () in
  ignore (Nav_cache.get cache "a");
  ignore (Nav_cache.get cache "a");
  ignore (Nav_cache.get cache "b");
  (* lifetime so far: 1 hit, 2 misses, 1 eviction *)
  Alcotest.(check bool) "pre-clear activity" true
    (Nav_cache.hits cache > 0 && Nav_cache.misses cache > 0 && Nav_cache.evictions cache > 0);
  Nav_cache.clear cache;
  Alcotest.(check int) "hits zeroed" 0 (Nav_cache.hits cache);
  Alcotest.(check int) "misses zeroed" 0 (Nav_cache.misses cache);
  Alcotest.(check int) "evictions zeroed" 0 (Nav_cache.evictions cache);
  Alcotest.(check (float 1e-9)) "hit rate back to empty" 0. (Nav_cache.hit_rate cache);
  ignore (Nav_cache.get cache "q");
  ignore (Nav_cache.get cache "q");
  (* 1 miss + 1 hit since the clear: the rate reflects only this regime. *)
  Alcotest.(check (float 1e-9)) "post-clear regime" 0.5 (Nav_cache.hit_rate cache)

let test_put_seeds_without_building () =
  let calls = ref 0 in
  let cache =
    Nav_cache.create
      ~build:(fun q ->
        incr calls;
        make_nav (String.length q))
      ()
  in
  let nav = make_nav 3 in
  Nav_cache.put cache "  Warm " nav;
  Alcotest.(check int) "no build on put" 0 !calls;
  Alcotest.(check int) "put is not a lookup" 0 (Nav_cache.hits cache + Nav_cache.misses cache);
  let got = Nav_cache.get cache "warm" in
  Alcotest.(check bool) "seeded tree served under normalized key" true (got == nav);
  Alcotest.(check int) "still no build" 0 !calls

let test_mutation_during_fold_trees () =
  let cache = Nav_cache.create ~build:(fun q -> make_nav (String.length q)) () in
  ignore (Nav_cache.get cache "a");
  ignore (Nav_cache.get cache "b");
  Alcotest.(check bool) "put during fold_trees rejected" true
    (try
       Nav_cache.fold_trees cache (fun _ () -> Nav_cache.put cache "c" (make_nav 3)) ();
       false
     with Invalid_argument _ -> true);
  (* The guard released: the cache still works. *)
  Alcotest.(check int) "fold still walks both trees" 2
    (Nav_cache.fold_trees cache (fun _ n -> n + 1) 0)

(* Both insert paths — [get]'s build and warm-start [put] — count their
   capacity eviction in the process-wide metric. *)
let test_eviction_metric_every_path () =
  let metric = Metrics.counter "bionav_cache_evictions_total" in
  let cache = Nav_cache.create ~capacity:1 ~build:(fun q -> make_nav (String.length q)) () in
  ignore (Nav_cache.get cache "a");
  let before = Metrics.value metric in
  ignore (Nav_cache.get cache "b");
  Alcotest.(check int) "get counts" (before + 1) (Metrics.value metric);
  Nav_cache.put cache "c" (make_nav 1);
  Alcotest.(check int) "put counts" (before + 2) (Metrics.value metric);
  Alcotest.(check int) "instance counter agrees" 2 (Nav_cache.evictions cache)

let counting_cache ~capacity =
  let calls = ref 0 in
  let cache =
    Nav_cache.create ~capacity
      ~build:(fun q ->
        incr calls;
        make_nav (String.length q))
      ()
  in
  (cache, calls)

(* Derived spaces live in their query tree's family, not in the cache:
   any number of them leaves every query tree resident. *)
let test_query_tree_survives_derived_inserts () =
  for capacity = 2 to 6 do
    let cache, calls = counting_cache ~capacity in
    let queries = List.init capacity (Printf.sprintf "query%d") in
    List.iter (fun q -> ignore (Nav_cache.get cache q)) queries;
    let owner = Nav_cache.get cache "query0" in
    for i = 1 to 100 do
      ignore (Nav_tree.derived owner (Printf.sprintf "d%d" i) (fun () -> make_nav 1))
    done;
    List.iter (fun q -> ignore (Nav_cache.get cache q)) queries;
    Alcotest.(check int)
      (Printf.sprintf "capacity %d: no query tree rebuilt" capacity)
      capacity !calls;
    Alcotest.(check int)
      (Printf.sprintf "capacity %d: no eviction" capacity)
      0 (Nav_cache.evictions cache)
  done

(* A single slot holds one query tree with its derived spaces; evicting
   the tree drops them, and its rebuild starts with none. *)
let test_capacity_one_derived () =
  let cache, calls = counting_cache ~capacity:1 in
  let q = Nav_cache.get cache "q" in
  let d = Nav_tree.derived q "d" (fun () -> make_nav 1) in
  Alcotest.(check bool) "derived space served again" true
    (Nav_tree.derived q "d" (fun () -> make_nav 1) == d);
  Alcotest.(check int) "deriving evicts nothing" 0 (Nav_cache.evictions cache);
  ignore (Nav_cache.get cache "r");
  let q' = Nav_cache.get cache "q" in
  Alcotest.(check int) "query tree rebuilt" 3 !calls;
  Alcotest.(check int) "the rebuilt tree owns nothing" 0
    (Nav_tree.fold_derived q' (fun _ _ n -> n + 1) 0)

(* The cache is a plain LRU over queries: the same misses as
   [Lru.find_or_add] on a random query stream. *)
let test_query_trees_plain_lru () =
  let st = Random.State.make [| 29 |] in
  let cache, calls = counting_cache ~capacity:3 in
  let model = Lru.create ~capacity:3 and model_calls = ref 0 in
  for _ = 1 to 500 do
    let q = Printf.sprintf "q%d" (Random.State.int st 7) in
    ignore (Nav_cache.get cache q);
    Lru.find_or_add model q (fun () -> incr model_calls)
  done;
  Alcotest.(check int) "same builds" !model_calls !calls;
  Alcotest.(check int) "same evictions" (Lru.evictions model) (Nav_cache.evictions cache)

let () =
  Alcotest.run "nav_cache"
    [
      ( "unit",
        [
          Alcotest.test_case "builds once" `Quick test_builds_once_per_query;
          Alcotest.test_case "normalizes" `Quick test_normalizes_queries;
          Alcotest.test_case "distinct queries" `Quick test_distinct_queries_build_separately;
          Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
          Alcotest.test_case "hit rate" `Quick test_hit_rate;
          Alcotest.test_case "hit rate across variants" `Quick
            test_hit_rate_spans_normalized_variants;
          Alcotest.test_case "eviction counter" `Quick test_eviction_counter;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "clear resets counters" `Quick test_clear_resets_counters;
          Alcotest.test_case "put seeds without building" `Quick
            test_put_seeds_without_building;
          Alcotest.test_case "mutation during fold_trees" `Quick
            test_mutation_during_fold_trees;
          Alcotest.test_case "evictions counted on every insert" `Quick
            test_eviction_metric_every_path;
          Alcotest.test_case "query tree survives derived inserts" `Quick
            test_query_tree_survives_derived_inserts;
          Alcotest.test_case "query trees alone: plain LRU" `Quick test_query_trees_plain_lru;
          Alcotest.test_case "capacity one with derived" `Quick test_capacity_one_derived;
        ] );
    ]
