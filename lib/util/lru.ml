(* A circular doubly linked recency list runs through the table's nodes:
   [older] links lead from [head], the most recently used entry, towards
   the least recently used one, which is [head.newer]. *)
type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable newer : ('k, 'v) node;
  mutable older : ('k, 'v) node;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
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
    head = None;
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

let unlink t n =
  n.newer.older <- n.older;
  n.older.newer <- n.newer;
  match t.head with
  | Some h when h == n -> t.head <- (if n.older == n then None else Some n.older)
  | Some _ | None -> ()

(* Make [n], which is not on the list, the most recently used entry. On
   an empty list [n] is a lone node and already links to itself. *)
let push_front t n =
  (match t.head with
  | Some h ->
      n.older <- h;
      n.newer <- h.newer;
      h.newer.older <- n;
      h.newer <- n
  | None -> ());
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      unlink t n;
      push_front t n;
      t.hits <- t.hits + 1;
      Some n.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t k = Hashtbl.mem t.table k

let evict_lru t =
  match t.head with
  | Some h ->
      let victim = h.newer in
      unlink t victim;
      Hashtbl.remove t.table victim.key;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t k v =
  guard_iteration t "add";
  match Hashtbl.find_opt t.table k with
  | Some n ->
      n.value <- v;
      unlink t n;
      push_front t n
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_lru t;
      let rec n = { key = k; value = v; newer = n; older = n } in
      Hashtbl.add t.table k n;
      push_front t n

let remove t k =
  guard_iteration t "remove";
  Option.iter (unlink t) (Hashtbl.find_opt t.table k);
  Hashtbl.remove t.table k

let fold t f acc =
  t.iterating <- true;
  Fun.protect
    ~finally:(fun () -> t.iterating <- false)
    (fun () -> Hashtbl.fold (fun _ n acc -> f n.value acc) t.table acc)

let clear t =
  guard_iteration t "clear";
  Hashtbl.reset t.table;
  t.head <- None

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
