open Bionav_util

type t = { cache : (string, Nav_tree.t) Lru.t; build : string -> Nav_tree.t }

let create ?(capacity = 32) ~build () = { cache = Lru.create ~capacity; build }

let normalize q = String.lowercase_ascii (String.trim q)

let hits_counter = Metrics.counter "bionav_cache_hits_total"
let misses_counter = Metrics.counter "bionav_cache_misses_total"
let evictions_counter = Metrics.counter "bionav_cache_evictions_total"
let build_hist = Metrics.histogram "bionav_nav_tree_build_ms"

(* Every insert path counts its capacity eviction in the process metric. *)
let insert add t key nav =
  let evictions_before = Lru.evictions t.cache in
  add t.cache key nav;
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
      insert Lru.add t key nav;
      nav

let hit_rate t =
  let h = Lru.hits t.cache and m = Lru.misses t.cache in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let hits t = Lru.hits t.cache
let misses t = Lru.misses t.cache
let evictions t = Lru.evictions t.cache

let put t query nav = insert Lru.add t (normalize query) nav

(* Cold: in a full cache a run of derived inserts recycles one slot, and
   a derived space stays only if a [find] hits it before the next insert. *)
let put_derived t key nav = insert Lru.add_cold t key nav

(* Lookup without the build fallback: derived navigation spaces are built
   by the caller (the key embeds a space path, not a runnable query), so
   the [build] closure cannot serve a miss. Keys are used verbatim — the
   caller already normalized the query component. *)
let find t key =
  match Lru.find t.cache key with
  | Some nav ->
      Metrics.incr hits_counter;
      Some nav
  | None ->
      Metrics.incr misses_counter;
      None

let fold_trees t f acc = Lru.fold t.cache f acc

let clear t =
  Lru.clear t.cache;
  Lru.reset_counters t.cache
