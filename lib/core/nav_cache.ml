open Bionav_util

type t = { cache : (string, Nav_tree.t) Lru.t; build : string -> Nav_tree.t }

let create ?(capacity = 32) ~build () = { cache = Lru.create ~capacity; build }

let normalize q = String.lowercase_ascii (String.trim q)

let hits_counter = Metrics.counter "bionav_cache_hits_total"
let misses_counter = Metrics.counter "bionav_cache_misses_total"
let evictions_counter = Metrics.counter "bionav_cache_evictions_total"
let build_hist = Metrics.histogram "bionav_nav_tree_build_ms"

(* Both insert paths count their capacity eviction in the process metric. *)
let insert t key nav =
  let evictions_before = Lru.evictions t.cache in
  Lru.add t.cache key nav;
  if Lru.evictions t.cache > evictions_before then Metrics.incr evictions_counter

let get t query =
  let key = normalize query in
  match Lru.find t.cache key with
  | Some nav ->
      Metrics.incr hits_counter;
      nav
  | None ->
      Metrics.incr misses_counter;
      let nav, build_ms = Timing.time (fun () -> t.build query) in
      Metrics.observe build_hist build_ms;
      insert t key nav;
      nav

let hit_rate t =
  let h = Lru.hits t.cache and m = Lru.misses t.cache in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let hits t = Lru.hits t.cache
let misses t = Lru.misses t.cache
let evictions t = Lru.evictions t.cache

let put t query nav = insert t (normalize query) nav

let fold_trees t f acc = Lru.fold t.cache f acc

let clear t =
  Lru.clear t.cache;
  Lru.reset_counters t.cache
