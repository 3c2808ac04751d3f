open Bionav_util
open Bionav_core

type entry = { members : int array; cut : int list }
type t = { cache : (string, entry) Lru.t }

let hits_counter = Metrics.counter "bionav_prefetch_plan_hits_total"
let misses_counter = Metrics.counter "bionav_prefetch_plan_misses_total"
let insertions_counter = Metrics.counter "bionav_prefetch_plan_insertions_total"
let evictions_counter = Metrics.counter "bionav_prefetch_plan_evictions_total"

let default_capacity = 512

let create ?(capacity = default_capacity) () = { cache = Lru.create ~capacity }

(* The key carries the member set's content fingerprint. Collisions are
   harmless: [find] verifies the stored member array before serving a
   cut. *)
let key query fingerprint root members =
  Printf.sprintf "%s\x00%s\x00%d\x00%x" (Nav_cache.normalize query) fingerprint root
    (Docset.fingerprint members)

let same_members stored members = Docset.equal_array members stored

let find t ~query ~fingerprint ~root ~members =
  match Lru.find t.cache (key query fingerprint root members) with
  | Some e when same_members e.members members ->
      Metrics.incr hits_counter;
      Some e.cut
  | Some _ | None ->
      Metrics.incr misses_counter;
      None

let store t ~query ~fingerprint ~root ~members ~cut =
  match cut with
  | [] -> ()
  | _ :: _ ->
      let evictions_before = Lru.evictions t.cache in
      Lru.add t.cache (key query fingerprint root members)
        { members = Docset.to_array members; cut };
      Metrics.incr insertions_counter;
      if Lru.evictions t.cache > evictions_before then Metrics.incr evictions_counter

let length t = Lru.length t.cache
let hits t = Lru.hits t.cache
let misses t = Lru.misses t.cache
let clear t =
  Lru.clear t.cache;
  Lru.reset_counters t.cache

let plan_source t ~query ~fingerprint =
  {
    Navigation.find_plan = (fun ~root ~members -> find t ~query ~fingerprint ~root ~members);
    store_plan = (fun ~root ~members ~cut -> store t ~query ~fingerprint ~root ~members ~cut);
  }
