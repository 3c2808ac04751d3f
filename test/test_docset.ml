(* The docset layer: interned, arena-backed result sets — arena storage
   semantics (dedup, representations, memoization) and handle semantics
   (cross-arena equality, rebasing, algebra). *)

open Bionav_util
module A = Docset_arena

let sorted l = List.sort_uniq compare l

(* --- arena ------------------------------------------------------------- *)

let test_empty_preinterned () =
  let a = A.create () in
  Alcotest.(check int) "empty id" A.empty_id (A.intern a [||]);
  Alcotest.(check int) "empty cardinal" 0 (A.cardinal a A.empty_id);
  Alcotest.(check (list int)) "no elements" [] (Array.to_list (A.to_array a A.empty_id))

let test_intern_dedups () =
  let a = A.create () in
  let id1 = A.intern a [| 1; 5; 9 |] in
  let id2 = A.intern a [| 1; 5; 9 |] in
  let id3 = A.intern a [| 1; 5; 10 |] in
  Alcotest.(check int) "same content same id" id1 id2;
  Alcotest.(check bool) "different content different id" true (id1 <> id3);
  let st = A.stats a in
  Alcotest.(check int) "one dedup hit" 1 st.A.dedup_hits;
  Alcotest.(check int) "empty + two distinct" 3 st.A.sets

let test_intern_rejects_unsorted () =
  let a = A.create () in
  Alcotest.check_raises "unsorted" (Invalid_argument "Docset_arena.intern: array must be sorted strictly increasing")
    (fun () -> ignore (A.intern a [| 3; 1 |]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Docset_arena.intern: array must be sorted strictly increasing")
    (fun () -> ignore (A.intern a [| 1; 1 |]))

let test_representations () =
  let a = A.create () in
  (* A contiguous run packs dense; scattered points stay sparse; negative
     elements force sparse. *)
  let dense = A.intern a (Array.init 100 Fun.id) in
  let sparse = A.intern a [| 0; 1000; 50000 |] in
  let negative = A.intern a [| -5; 0; 3 |] in
  let st = A.stats a in
  Alcotest.(check bool) "has dense" true (st.A.dense >= 1);
  Alcotest.(check bool) "has sparse" true (st.A.sparse >= 2);
  Alcotest.(check int) "dense cardinal" 100 (A.cardinal a dense);
  Alcotest.(check (list int)) "dense roundtrip" (List.init 100 Fun.id)
    (Array.to_list (A.to_array a dense));
  Alcotest.(check (list int)) "sparse roundtrip" [ 0; 1000; 50000 ]
    (Array.to_list (A.to_array a sparse));
  Alcotest.(check (list int)) "negative roundtrip" [ -5; 0; 3 ]
    (Array.to_list (A.to_array a negative));
  (* max_elt reads the last word of a bitset, including its top bit. *)
  let full_words = A.intern a (Array.init 64 (fun i -> 32 + i)) in
  Alcotest.(check (list int)) "max_elt" [ 99; 95; 50000; 3 ]
    (List.map (A.max_elt a) [ dense; full_words; sparse; negative ]);
  Alcotest.(check bool) "bytes accounted" true (st.A.bytes > 0)

let test_queries () =
  let a = A.create () in
  let id = A.intern a [| 2; 4; 8 |] in
  Alcotest.(check bool) "mem yes" true (A.mem a id 4);
  Alcotest.(check bool) "mem no" false (A.mem a id 5);
  Alcotest.(check int) "choose" 2 (A.choose a id);
  Alcotest.(check int) "fold sum" 14 (A.fold a id ( + ) 0);
  Alcotest.(check bool) "equal_array" true (A.equal_array a id [| 2; 4; 8 |]);
  Alcotest.(check bool) "equal_array no" false (A.equal_array a id [| 2; 4 |]);
  Alcotest.check_raises "choose empty" Not_found (fun () -> ignore (A.choose a A.empty_id));
  Alcotest.check_raises "max_elt empty" Not_found (fun () -> ignore (A.max_elt a A.empty_id))

let test_algebra_memoized () =
  let a = A.create () in
  let x = A.intern a [| 1; 2; 3; 4 |] in
  let y = A.intern a [| 3; 4; 5 |] in
  let u1 = A.union a x y in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5 ] (Array.to_list (A.to_array a u1));
  Alcotest.(check (list int)) "inter" [ 3; 4 ] (Array.to_list (A.to_array a (A.inter a x y)));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Array.to_list (A.to_array a (A.diff a x y)));
  let before = (A.stats a).A.memo_hits in
  let u2 = A.union a x y in
  let u3 = A.union a y x in
  Alcotest.(check int) "repeat is same id" u1 u2;
  Alcotest.(check int) "commutative memo" u1 u3;
  Alcotest.(check bool) "memo hits grew" true ((A.stats a).A.memo_hits > before)

let test_cardinal_family () =
  let a = A.create () in
  (* Mixed representations: dense/dense, dense/sparse, sparse/sparse. *)
  let d1 = A.intern a (Array.init 64 Fun.id) in
  let d2 = A.intern a (Array.init 64 (fun i -> i + 32)) in
  let s1 = A.intern a [| 5; 40; 900 |] in
  let s2 = A.intern a [| 40; 900; 7777 |] in
  let check name p q =
    let inter = A.cardinal a (A.inter a p q) and union = A.cardinal a (A.union a p q) in
    Alcotest.(check int) (name ^ " inter_cardinal") inter (A.inter_cardinal a p q);
    Alcotest.(check int) (name ^ " union_cardinal") union (A.union_cardinal a p q)
  in
  check "dense/dense" d1 d2;
  check "dense/sparse" d1 s1;
  check "sparse/dense" s1 d2;
  check "sparse/sparse" s1 s2;
  Alcotest.(check bool) "subset yes" true (A.subset a (A.inter a d1 d2) d1);
  Alcotest.(check bool) "subset no" false (A.subset a d1 d2)

let test_union_many_arena () =
  let a = A.create () in
  let ids = List.map (A.intern a) [ [| 1; 2 |]; [| 2; 3 |]; [| 9 |]; [| 1; 2 |] ] in
  let u = A.union_many a ids in
  Alcotest.(check (list int)) "union_many" [ 1; 2; 3; 9 ] (Array.to_list (A.to_array a u));
  Alcotest.(check int) "empty operands" A.empty_id (A.union_many a []);
  Alcotest.(check int) "singleton operand" (List.hd ids) (A.union_many a [ List.hd ids ])

(* --- handles ------------------------------------------------------------ *)

let test_handle_basics () =
  let s = Docset.of_list [ 5; 1; 5; 3 ] in
  Alcotest.(check (list int)) "sorted deduped" [ 1; 3; 5 ] (Docset.elements s);
  Alcotest.(check int) "cardinal" 3 (Docset.cardinal s);
  Alcotest.(check bool) "mem" true (Docset.mem 3 s);
  Alcotest.(check int) "choose" 1 (Docset.choose s);
  Alcotest.(check bool) "empty is empty" true (Docset.is_empty Docset.empty);
  Alcotest.(check bool) "singleton" true (Docset.elements (Docset.singleton 7) = [ 7 ])

let test_handle_equal_cross_arena () =
  let arena = A.create () in
  let a = Docset.of_list [ 1; 2; 3 ] in
  let b = Docset.of_list_in arena [ 3; 2; 1 ] in
  Alcotest.(check bool) "equal across arenas" true (Docset.equal a b);
  Alcotest.(check int) "same fingerprint" (Docset.fingerprint a) (Docset.fingerprint b);
  Alcotest.(check int) "compare 0" 0 (Docset.compare a b);
  let c = Docset.of_list [ 1; 2; 4 ] in
  Alcotest.(check bool) "unequal" false (Docset.equal a c);
  Alcotest.(check bool) "compare consistent" true (Docset.compare a c <> 0)

let test_handle_rebase () =
  let arena = A.create () in
  let a = Docset.of_list [ 1; 2; 3 ] in
  let a' = Docset.in_arena arena a in
  Alcotest.(check bool) "lives in target" true (Docset.arena a' == arena);
  Alcotest.(check bool) "same content" true (Docset.equal a a');
  Alcotest.(check bool) "no-op when already there" true (Docset.in_arena arena a' == a')

let test_import_dedups_across_arenas () =
  let src1 = A.create () and src2 = A.create () and dst = A.create () in
  let dense = Array.init 200 Fun.id in
  let sparse = [| 3; 900; 40_000 |] in
  List.iter
    (fun a ->
      let i1 = A.import dst ~src:src1 (A.intern src1 a) in
      let i2 = A.import dst ~src:src2 (A.intern src2 a) in
      Alcotest.(check int) "equal sets from two arenas share one id" i1 i2;
      Alcotest.(check bool) "content" true (A.equal_array dst i1 a);
      Alcotest.(check int) "fingerprint" (A.fingerprint src1 (A.intern src1 a)) (A.fingerprint dst i1))
    [ dense; sparse ];
  Alcotest.(check int) "empty stays id 0" A.empty_id (A.import dst ~src:src1 A.empty_id);
  Alcotest.(check bool) "matches a set interned from an array" true
    (A.intern dst sparse = A.import dst ~src:src1 (A.intern src1 sparse));
  let d = A.intern dst dense and sp = A.intern dst sparse in
  A.freeze dst;
  Alcotest.(check bool) "frozen arenas refuse" true
    (try
       ignore (A.import dst ~src:src1 (A.intern src1 [| 7 |]));
       false
     with A.Frozen -> true);
  Alcotest.(check bool) "frozen arenas refuse algebra" true
    (try
       ignore (A.union dst d sp);
       false
     with A.Frozen -> true);
  Alcotest.(check int) "frozen arenas still count" 1 (A.inter_cardinal dst d sp)

let test_handle_algebra_cross_arena () =
  let a = Docset.of_list [ 1; 2; 3 ] in
  let b = Docset.of_list [ 3; 4 ] in
  (* Distinct private arenas: the op must rebase and still be right. *)
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Docset.elements (Docset.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Docset.elements (Docset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Docset.elements (Docset.diff a b));
  Alcotest.(check int) "inter_cardinal" 1 (Docset.inter_cardinal a b);
  Alcotest.(check int) "union_cardinal" 4 (Docset.union_cardinal a b);
  Alcotest.(check bool) "subset" true (Docset.subset (Docset.inter a b) b);
  Alcotest.(check bool) "union with empty" true
    (Docset.equal a (Docset.union a Docset.empty));
  Alcotest.(check bool) "empty union" true (Docset.equal a (Docset.union Docset.empty a))

let test_handle_union_many () =
  let sets = List.map Docset.of_list [ [ 1; 2 ]; []; [ 2; 9 ]; [ 0 ] ] in
  Alcotest.(check (list int)) "union_many" [ 0; 1; 2; 9 ]
    (Docset.elements (Docset.union_many sets));
  Alcotest.(check bool) "all empty" true (Docset.is_empty (Docset.union_many []))

let test_consolidate () =
  let sets = Array.of_list (List.map Docset.of_list [ [ 1; 2 ]; [ 2; 3 ]; [ 9 ] ]) in
  let c = Docset.consolidate sets in
  let home = Docset.arena c.(0) in
  Array.iter (fun s -> Alcotest.(check bool) "one arena" true (Docset.arena s == home)) c;
  Array.iteri
    (fun i s -> Alcotest.(check bool) "content kept" true (Docset.equal sets.(i) s))
    c

let test_intset_roundtrip () =
  let l = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let s = Docset.of_intset (Intset.of_list l) in
  Alcotest.(check (list int)) "of_intset" (sorted l) (Docset.elements s);
  Alcotest.(check (list int)) "to_intset" (sorted l) (Intset.elements (Docset.to_intset s))

let test_fingerprint_of_algebra () =
  (* A set produced by algebra fingerprints identically to the same set
     interned directly — plan-cache keys depend on this. *)
  let u = Docset.union (Docset.of_list [ 1; 2 ]) (Docset.of_list [ 2; 3 ]) in
  let direct = Docset.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "fingerprints agree" (Docset.fingerprint direct) (Docset.fingerprint u)

let () =
  Alcotest.run "docset"
    [
      ( "arena",
        [
          Alcotest.test_case "empty preinterned" `Quick test_empty_preinterned;
          Alcotest.test_case "intern dedups" `Quick test_intern_dedups;
          Alcotest.test_case "intern rejects unsorted" `Quick test_intern_rejects_unsorted;
          Alcotest.test_case "representations" `Quick test_representations;
          Alcotest.test_case "queries" `Quick test_queries;
          Alcotest.test_case "algebra memoized" `Quick test_algebra_memoized;
          Alcotest.test_case "cardinal family" `Quick test_cardinal_family;
          Alcotest.test_case "union_many" `Quick test_union_many_arena;
        ] );
      ( "handle",
        [
          Alcotest.test_case "basics" `Quick test_handle_basics;
          Alcotest.test_case "equal cross arena" `Quick test_handle_equal_cross_arena;
          Alcotest.test_case "rebase" `Quick test_handle_rebase;
          Alcotest.test_case "import dedups across arenas" `Quick test_import_dedups_across_arenas;
          Alcotest.test_case "algebra cross arena" `Quick test_handle_algebra_cross_arena;
          Alcotest.test_case "union_many" `Quick test_handle_union_many;
          Alcotest.test_case "consolidate" `Quick test_consolidate;
          Alcotest.test_case "intset roundtrip" `Quick test_intset_roundtrip;
          Alcotest.test_case "fingerprint of algebra" `Quick test_fingerprint_of_algebra;
        ] );
    ]
