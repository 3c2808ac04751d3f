(* The scanning LRU that the intrusive recency list in lib/util/lru.ml
   replaced, kept as the differential-test oracle: every entry carries a
   logical timestamp and eviction folds over the whole table for the
   smallest one, so each capacity eviction costs O(length). *)

type ('k, 'v) entry = { value : 'v; mutable last_use : int }

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable iterating : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create capacity;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    iterating = false;
  }

let guard_iteration t op =
  if t.iterating then
    invalid_arg (Printf.sprintf "Lru.%s: structural mutation during fold" op)

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
      e.last_use <- tick t;
      t.hits <- t.hits + 1;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t k = Hashtbl.mem t.table k

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best <= e.last_use -> acc
        | Some _ | None -> Some (k, e.last_use))
      t.table None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t k v =
  guard_iteration t "add";
  if not (Hashtbl.mem t.table k) && Hashtbl.length t.table >= t.capacity then evict_lru t;
  Hashtbl.replace t.table k { value = v; last_use = tick t }

let remove t k =
  guard_iteration t "remove";
  Hashtbl.remove t.table k

let fold t f acc =
  t.iterating <- true;
  Fun.protect
    ~finally:(fun () -> t.iterating <- false)
    (fun () -> Hashtbl.fold (fun _ e acc -> f e.value acc) t.table acc)

let clear t =
  guard_iteration t "clear";
  Hashtbl.reset t.table

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let find_or_add t k f =
  match find t k with
  | Some v -> v
  | None ->
      let v = f () in
      add t k v;
      v
