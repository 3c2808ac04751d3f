open Bionav_util

let test_basic_add_find () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "miss" None (Lru.find c "z");
  Alcotest.(check int) "length" 2 (Lru.length c);
  Alcotest.(check int) "capacity" 3 (Lru.capacity c)

let test_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  ignore (Lru.find c "a");
  (* "b" is now least recently used. *)
  Lru.add c "c" 3;
  Alcotest.(check bool) "a kept" true (Lru.mem c "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check bool) "c present" true (Lru.mem c "c")

let test_replace_does_not_evict () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "a" 10;
  Alcotest.(check int) "still two" 2 (Lru.length c);
  Alcotest.(check (option int)) "updated" (Some 10) (Lru.find c "a");
  Alcotest.(check bool) "b kept" true (Lru.mem c "b")

let test_capacity_one () =
  let c = Lru.create ~capacity:1 in
  Lru.add c 1 "x";
  Lru.add c 2 "y";
  Alcotest.(check bool) "first evicted" false (Lru.mem c 1);
  Alcotest.(check (option string)) "second present" (Some "y") (Lru.find c 2)

let test_reinsert_lru_head_refreshes () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* "a" is the current LRU victim; re-inserting it must refresh its
     recency, shifting the victim role to "b". *)
  Lru.add c "a" 10;
  Lru.add c "c" 3;
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check (option int)) "a survives with new value" (Some 10) (Lru.find c "a");
  Alcotest.(check bool) "c present" true (Lru.mem c "c")

let test_capacity_one_churn () =
  let c = Lru.create ~capacity:1 in
  Lru.add c "a" 1;
  Lru.add c "a" 2;
  Alcotest.(check int) "replace at capacity does not evict" 0 (Lru.evictions c);
  Alcotest.(check (option int)) "replaced" (Some 2) (Lru.find c "a");
  Lru.add c "b" 3;
  Alcotest.(check int) "new key evicts" 1 (Lru.evictions c);
  Alcotest.(check bool) "old gone" false (Lru.mem c "a");
  Alcotest.(check (option int)) "new present" (Some 3) (Lru.find c "b")

let test_reset_counters () =
  let c = Lru.create ~capacity:1 in
  Lru.add c "a" 1;
  ignore (Lru.find c "a");
  ignore (Lru.find c "z");
  Lru.add c "b" 2;
  Alcotest.(check bool) "activity recorded" true
    (Lru.hits c > 0 && Lru.misses c > 0 && Lru.evictions c > 0);
  Lru.reset_counters c;
  Alcotest.(check int) "hits zeroed" 0 (Lru.hits c);
  Alcotest.(check int) "misses zeroed" 0 (Lru.misses c);
  Alcotest.(check int) "evictions zeroed" 0 (Lru.evictions c);
  Alcotest.(check int) "entries untouched" 1 (Lru.length c);
  Alcotest.(check (option int)) "still served" (Some 2) (Lru.find c "b")

let test_hits_misses () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  ignore (Lru.find c "a");
  ignore (Lru.find c "a");
  ignore (Lru.find c "b");
  Alcotest.(check int) "hits" 2 (Lru.hits c);
  Alcotest.(check int) "misses" 1 (Lru.misses c)

let test_find_or_add () =
  let c = Lru.create ~capacity:2 in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  Alcotest.(check int) "computes once" 42 (Lru.find_or_add c "k" compute);
  Alcotest.(check int) "cached" 42 (Lru.find_or_add c "k" compute);
  Alcotest.(check int) "single call" 1 !calls

let test_remove_clear () =
  let c = Lru.create ~capacity:4 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.remove c "a";
  Alcotest.(check bool) "removed" false (Lru.mem c "a");
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c)

let test_rejects_zero_capacity () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Lru.create ~capacity:0 : (int, int) Lru.t);
       false
     with Invalid_argument _ -> true)

(* Mutating the cache from inside [fold] would invalidate the hashtable
   walk; the guard turns that latent corruption into an immediate
   [Invalid_argument], while reads stay allowed and the guard is always
   released — even when the fold raises. *)
let test_mutation_during_fold () =
  let c = Lru.create ~capacity:4 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  let raises op = try op (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "add during fold" true
    (raises (fun () -> Lru.fold c (fun _ () -> Lru.add c "c" 3) ()));
  Alcotest.(check bool) "remove during fold" true
    (raises (fun () -> Lru.fold c (fun _ () -> Lru.remove c "a") ()));
  Alcotest.(check bool) "clear during fold" true
    (raises (fun () -> Lru.fold c (fun _ () -> Lru.clear c) ()));
  (* Non-structural reads inside the fold are fine. *)
  Alcotest.(check int) "find during fold ok" 2
    (Lru.fold c (fun _ acc -> ignore (Lru.find c "a" : int option); acc + 1) 0);
  (* A raising fold must release the guard for the next mutation. *)
  (try Lru.fold c (fun _ () -> failwith "boom") () with Failure _ -> ());
  Lru.add c "d" 4;
  Alcotest.(check bool) "guard released after raising fold" true (Lru.mem c "d")

let qcheck_never_exceeds_capacity =
  QCheck.Test.make ~name:"length never exceeds capacity" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size (QCheck.Gen.int_range 0 60) (int_range 0 20)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun k -> Lru.add c k k) keys;
      Lru.length c <= cap)

let qcheck_recent_k_survive =
  QCheck.Test.make ~name:"most recent distinct keys survive" ~count:300
    QCheck.(pair (int_range 1 6) (list_of_size (QCheck.Gen.int_range 1 40) (int_range 0 15)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun k -> Lru.add c k k) keys;
      (* The min(cap, distinct) most recently added keys must be present. *)
      let recent_first =
        List.fold_left
          (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
          [] (List.rev keys)
      in
      let expected = List.filteri (fun i _ -> i < cap) recent_first in
      List.for_all (Lru.mem c) expected)

(* Differential check against the scanning LRU it replaced
   (test/lru_oracle.ml): random operation sequences over a small key space
   must give the same answers, lengths, counters and resident values after
   every step, so every eviction picks the same victim. *)
type op =
  | Add of int * int
  | Find of int
  | Mem of int
  | Remove of int
  | Clear
  | Reset_counters
  | Find_or_add of int * int
  | Fold_find of int  (* a recency-touching read inside [fold] *)
  | Fold_mutate of int  (* add, remove or clear inside [fold] *)

let show_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"
  | Reset_counters -> "reset_counters"
  | Find_or_add (k, v) -> Printf.sprintf "find_or_add %d %d" k v
  | Fold_find k -> Printf.sprintf "fold_find %d" k
  | Fold_mutate m -> Printf.sprintf "fold_mutate %d" m

let op_gen =
  let open QCheck.Gen in
  let key = int_range 0 11 and value = int_range 0 999 in
  frequency
    [
      (6, map2 (fun k v -> Add (k, v)) key value);
      (6, map (fun k -> Find k) key);
      (2, map (fun k -> Mem k) key);
      (2, map (fun k -> Remove k) key);
      (1, return Clear);
      (1, return Reset_counters);
      (3, map2 (fun k v -> Find_or_add (k, v)) key value);
      (1, map (fun k -> Fold_find k) key);
      (1, map (fun m -> Fold_mutate m) (int_range 0 2));
    ]

type answer = Unit | Found of int option | Bool of bool | Int of int | Raised

let raises f = try f (); false with Invalid_argument _ -> true

(* One step of a sequence against either implementation, and what can be
   observed of the cache after it. *)
module type LRU = sig
  type ('k, 'v) t

  val length : ('k, 'v) t -> int
  val find : ('k, 'v) t -> 'k -> 'v option
  val mem : ('k, 'v) t -> 'k -> bool
  val add : ('k, 'v) t -> 'k -> 'v -> unit
  val remove : ('k, 'v) t -> 'k -> unit
  val clear : ('k, 'v) t -> unit
  val fold : ('k, 'v) t -> ('v -> 'a -> 'a) -> 'a -> 'a
  val hits : ('k, 'v) t -> int
  val misses : ('k, 'v) t -> int
  val evictions : ('k, 'v) t -> int
  val reset_counters : ('k, 'v) t -> unit
  val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
end

module Step (L : LRU) = struct
  let apply c = function
    | Add (k, v) -> L.add c k v; Unit
    | Find k -> Found (L.find c k)
    | Mem k -> Bool (L.mem c k)
    | Remove k -> L.remove c k; Unit
    | Clear -> L.clear c; Unit
    | Reset_counters -> L.reset_counters c; Unit
    | Find_or_add (k, v) -> Int (L.find_or_add c k (fun () -> v))
    | Fold_find k -> Int (L.fold c (fun v acc -> ignore (L.find c k : int option); acc + v) 0)
    | Fold_mutate m ->
        let mutate () = match m with 0 -> L.add c 0 0 | 1 -> L.remove c 0 | _ -> L.clear c in
        if raises (fun () -> L.fold c (fun _ () -> mutate ()) ()) then Raised else Unit

  let observe c =
    ( (L.length c, L.hits c, L.misses c, L.evictions c),
      List.sort compare (L.fold c (fun v acc -> v :: acc) []),
      List.init 12 (L.mem c) )
end

module New = Step (Lru)
module Old = Step (Lru_oracle)

let qcheck_matches_oracle =
  QCheck.Test.make ~name:"same answers, counters and contents as the scanning oracle"
    ~count:500
    QCheck.(
      pair (int_range 1 8)
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_op ops))
           QCheck.Gen.(list_size (int_range 0 120) op_gen)))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap and o = Lru_oracle.create ~capacity:cap in
      List.for_all
        (fun op -> New.apply c op = Old.apply o op && New.observe c = Old.observe o)
        ops)

let () =
  Alcotest.run "lru"
    [
      ( "unit",
        [
          Alcotest.test_case "add/find" `Quick test_basic_add_find;
          Alcotest.test_case "eviction order" `Quick test_eviction_order;
          Alcotest.test_case "replace" `Quick test_replace_does_not_evict;
          Alcotest.test_case "capacity one" `Quick test_capacity_one;
          Alcotest.test_case "capacity-one churn" `Quick test_capacity_one_churn;
          Alcotest.test_case "re-insert LRU head" `Quick test_reinsert_lru_head_refreshes;
          Alcotest.test_case "reset_counters" `Quick test_reset_counters;
          Alcotest.test_case "hits/misses" `Quick test_hits_misses;
          Alcotest.test_case "find_or_add" `Quick test_find_or_add;
          Alcotest.test_case "remove/clear" `Quick test_remove_clear;
          Alcotest.test_case "rejects zero capacity" `Quick test_rejects_zero_capacity;
          Alcotest.test_case "mutation during fold" `Quick test_mutation_during_fold;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest qcheck_recent_k_survive;
          QCheck_alcotest.to_alcotest qcheck_matches_oracle;
        ] );
    ]
