(* The docset layer: immutable result-set values. The "arena" group covers
   the packed representations (sorted array or bitset, chosen from the
   content) and the "handle" group the value API; both names are kept
   from the arena layer these values replaced. The "differential" group
   checks every operation against the Intset reference implementation. *)

open Bionav_util

let sorted l = List.sort_uniq compare l

(* --- representations ------------------------------------------------------ *)

let test_empty_preinterned () =
  Alcotest.(check bool) "empty array is empty" true
    (Docset.equal Docset.empty (Docset.of_sorted_array_unchecked [||]));
  Alcotest.(check bool) "empty list is empty" true (Docset.is_empty (Docset.of_list []));
  Alcotest.(check int) "empty cardinal" 0 (Docset.cardinal Docset.empty);
  Alcotest.(check (list int)) "no elements" [] (Array.to_list (Docset.to_array Docset.empty));
  Alcotest.(check int) "no payload" 24 (Docset.bytes Docset.empty)

let test_intern_rejects_unsorted () =
  (* The unchecked constructor trusts its caller; Intset's debug assertion
     is the one sortedness check left. *)
  let caught a =
    match Docset.of_sorted_array_unchecked a with
    | exception Assert_failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unsorted" true (caught [| 3; 1 |]);
  Alcotest.(check bool) "duplicate" true (caught [| 1; 1 |])

let test_representations () =
  (* A contiguous run packs dense; scattered points stay sparse; negative
     elements force sparse. [bytes] tells the representations apart. *)
  let dense = Docset.of_sorted_array_unchecked (Array.init 100 Fun.id) in
  let sparse = Docset.of_list [ 0; 1000; 50000 ] in
  let negative = Docset.of_sorted_array_unchecked (Array.init 100 (fun i -> i - 5)) in
  Alcotest.(check int) "dense: 4 words" ((8 * 4) + 40) (Docset.bytes dense);
  Alcotest.(check int) "sparse: 3 elements" ((8 * 3) + 24) (Docset.bytes sparse);
  Alcotest.(check int) "negative: 100 elements" ((8 * 100) + 24) (Docset.bytes negative);
  Alcotest.(check int) "dense cardinal" 100 (Docset.cardinal dense);
  Alcotest.(check (list int)) "dense roundtrip" (List.init 100 Fun.id)
    (Array.to_list (Docset.to_array dense));
  Alcotest.(check (list int)) "sparse roundtrip" [ 0; 1000; 50000 ]
    (Array.to_list (Docset.to_array sparse));
  Alcotest.(check (list int)) "negative roundtrip" (List.init 100 (fun i -> i - 5))
    (Docset.elements negative);
  (* max_elt reads the last word of a bitset, including its top bit. *)
  let full_words = Docset.of_sorted_array_unchecked (Array.init 64 (fun i -> 32 + i)) in
  Alcotest.(check (list int)) "max_elt" [ 99; 95; 50000; 94 ]
    (List.map Docset.max_elt [ dense; full_words; sparse; negative ]);
  (* Packing depends on the content only: algebra that ends dense or
     sparse yields the representation direct construction picks. *)
  let most = Docset.of_sorted_array_unchecked (Array.init 97 (fun i -> i + 3)) in
  let shrunk = Docset.diff dense most in
  Alcotest.(check int) "dense minus most is sparse" ((8 * 3) + 24) (Docset.bytes shrunk);
  let grown = Docset.union_many [ sparse; dense ] in
  Alcotest.(check bool) "union equals direct" true
    (Docset.equal grown (Docset.of_list (50000 :: 1000 :: List.init 100 Fun.id)))

let test_queries () =
  let s = Docset.of_list [ 2; 4; 8 ] in
  Alcotest.(check bool) "mem yes" true (Docset.mem 4 s);
  Alcotest.(check bool) "mem no" false (Docset.mem 5 s);
  Alcotest.(check int) "choose" 2 (Docset.choose s);
  Alcotest.(check int) "fold sum" 14 (Docset.fold ( + ) s 0);
  Alcotest.(check bool) "equal_array" true (Docset.equal_array s [| 2; 4; 8 |]);
  Alcotest.(check bool) "equal_array no" false (Docset.equal_array s [| 2; 4 |]);
  Alcotest.check_raises "choose empty" Not_found (fun () -> ignore (Docset.choose Docset.empty));
  Alcotest.check_raises "max_elt empty" Not_found (fun () ->
      ignore (Docset.max_elt Docset.empty))

let test_cardinal_family () =
  (* Mixed representations: dense/dense, dense/sparse, sparse/sparse. *)
  let d1 = Docset.of_sorted_array_unchecked (Array.init 64 Fun.id) in
  let d2 = Docset.of_sorted_array_unchecked (Array.init 64 (fun i -> i + 32)) in
  let s1 = Docset.of_list [ 5; 40; 900 ] in
  let s2 = Docset.of_list [ 40; 900; 7777 ] in
  let check name p q =
    let inter = Docset.cardinal (Docset.inter p q) and union = Docset.cardinal (Docset.union p q) in
    Alcotest.(check int) (name ^ " inter_cardinal") inter (Docset.inter_cardinal p q);
    Alcotest.(check int) (name ^ " union_cardinal") union (Docset.union_cardinal p q)
  in
  check "dense/dense" d1 d2;
  check "dense/sparse" d1 s1;
  check "sparse/dense" s1 d2;
  check "sparse/sparse" s1 s2;
  Alcotest.(check bool) "subset yes" true (Docset.subset (Docset.inter d1 d2) d1);
  Alcotest.(check bool) "subset no" false (Docset.subset d1 d2)

let test_union_many_arena () =
  let sets = List.map Docset.of_list [ [ 1; 2 ]; [ 2; 3 ]; [ 9 ]; [ 1; 2 ] ] in
  Alcotest.(check (list int)) "union_many" [ 1; 2; 3; 9 ]
    (Docset.elements (Docset.union_many sets));
  Alcotest.(check bool) "empty operands" true (Docset.is_empty (Docset.union_many []));
  let one = List.hd sets in
  Alcotest.(check bool) "singleton operand is shared" true (Docset.union_many [ one ] == one);
  (* A union equal to its largest operand is that operand. *)
  let big = Docset.of_sorted_array_unchecked (Array.init 200 Fun.id) in
  Alcotest.(check bool) "covering operand is shared" true
    (Docset.union_many [ Docset.of_list [ 3; 70 ]; big; Docset.of_list [ 199 ] ] == big)

(* --- values --------------------------------------------------------------- *)

let test_handle_basics () =
  let s = Docset.of_list [ 5; 1; 5; 3 ] in
  Alcotest.(check (list int)) "sorted deduped" [ 1; 3; 5 ] (Docset.elements s);
  Alcotest.(check int) "cardinal" 3 (Docset.cardinal s);
  Alcotest.(check bool) "mem" true (Docset.mem 3 s);
  Alcotest.(check int) "choose" 1 (Docset.choose s);
  Alcotest.(check bool) "empty is empty" true (Docset.is_empty Docset.empty);
  Alcotest.(check bool) "singleton" true (Docset.elements (Docset.singleton 7) = [ 7 ])

let test_handle_equal_cross_arena () =
  (* Values built independently compare by content. *)
  let a = Docset.of_list [ 1; 2; 3 ] in
  let b = Docset.of_array [| 3; 2; 1 |] in
  Alcotest.(check bool) "equal" true (Docset.equal a b);
  Alcotest.(check int) "same fingerprint" (Docset.fingerprint a) (Docset.fingerprint b);
  Alcotest.(check int) "compare 0" 0 (Docset.compare a b);
  let c = Docset.of_list [ 1; 2; 4 ] in
  Alcotest.(check bool) "unequal" false (Docset.equal a c);
  Alcotest.(check bool) "compare consistent" true (Docset.compare a c <> 0)

let test_handle_algebra_cross_arena () =
  let a = Docset.of_list [ 1; 2; 3 ] in
  let b = Docset.of_list [ 3; 4 ] in
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

let test_intset_roundtrip () =
  let l = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let s = Docset.of_intset (Intset.of_list l) in
  Alcotest.(check (list int)) "of_intset" (sorted l) (Docset.elements s);
  Alcotest.(check (list int)) "to_intset" (sorted l) (Intset.elements (Docset.to_intset s))

let test_fingerprint_of_algebra () =
  (* A set produced by algebra fingerprints identically to the same set
     built directly — plan-cache keys depend on this. *)
  let u = Docset.union (Docset.of_list [ 1; 2 ]) (Docset.of_list [ 2; 3 ]) in
  let direct = Docset.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "fingerprints agree" (Docset.fingerprint direct) (Docset.fingerprint u)

(* --- differential against Intset ------------------------------------------ *)

(* Sets that exercise both representations and their boundaries: empty,
   scattered (sparse, some negative), dense runs at any offset, dense runs
   straddling zero (negative elements force the sorted array), and
   contiguous blocks. *)
let gen_set =
  let open QCheck.Gen in
  let run lo_min lo_max width n_max =
    int_range lo_min lo_max >>= fun base ->
    list_size (int_range 0 n_max) (map (fun x -> base + x) (int_range 0 width))
  in
  frequency
    [
      (1, return []);
      (3, list_size (int_range 1 30) (int_range (-50) 5000));
      (3, run 0 3000 400 300);
      (2, run (-200) 0 250 200);
      (2, int_range 0 100 >>= fun b -> map (fun n -> List.init n (( + ) b)) (int_range 1 200));
    ]

let arb_set =
  QCheck.make ~print:(fun l -> "[" ^ String.concat ";" (List.map string_of_int l) ^ "]") gen_set

let arb_pair = QCheck.pair arb_set arb_set

let check_same name d i =
  if Docset.elements d <> Intset.elements i then
    QCheck.Test.fail_reportf "%s: docset %s / intset %s" name
      (Format.asprintf "%a" Docset.pp d)
      (Format.asprintf "%a" Intset.pp i)

let prop_binops =
  QCheck.Test.make ~name:"union, inter, diff agree" ~count:500 arb_pair (fun (a, b) ->
      let da = Docset.of_list a and db = Docset.of_list b in
      let ia = Intset.of_list a and ib = Intset.of_list b in
      check_same "union" (Docset.union da db) (Intset.union ia ib);
      check_same "inter" (Docset.inter da db) (Intset.inter ia ib);
      check_same "diff" (Docset.diff da db) (Intset.diff ia ib);
      check_same "diff reversed" (Docset.diff db da) (Intset.diff ib ia);
      true)

let prop_counts =
  QCheck.Test.make ~name:"cardinals and subset agree" ~count:500 arb_pair (fun (a, b) ->
      let da = Docset.of_list a and db = Docset.of_list b in
      let ia = Intset.of_list a and ib = Intset.of_list b in
      Docset.cardinal da = Intset.cardinal ia
      && Docset.inter_cardinal da db = Intset.inter_cardinal ia ib
      && Docset.union_cardinal da db = Intset.cardinal (Intset.union ia ib)
      && Docset.subset da db = Intset.subset ia ib
      && Docset.subset (Docset.inter da db) da)

let prop_inter_mask =
  QCheck.Test.make ~name:"inter_mask equals inter, sharing contained sets" ~count:500 arb_pair
    (fun (a, b) ->
      (* The masked-restriction oracle in nav_tree_oracle.ml filters with
         this; spread apart, the sets take the sparse representation. *)
      List.for_all
        (fun scale ->
          let da = Docset.of_list (List.map (( * ) scale) a) in
          let db = Docset.of_list (List.map (( * ) scale) b) in
          let r = Nav_tree_oracle.inter_mask da db in
          Docset.equal r (Docset.inter da db) && ((not (Docset.subset da db)) || r == da))
        [ 1; 100_000 ])

let prop_union_many =
  QCheck.Test.make ~name:"union_many agrees, up to 20 operands" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20) arb_set)
    (fun ls ->
      check_same "union_many"
        (Docset.union_many (List.map Docset.of_list ls))
        (Intset.union_many (List.map Intset.of_list ls));
      true)

let prop_queries =
  QCheck.Test.make ~name:"queries agree" ~count:500 (QCheck.pair arb_set QCheck.small_signed_int)
    (fun (l, probe) ->
      let d = Docset.of_list l and i = Intset.of_list l in
      let arr = Intset.to_array i in
      let empty = Intset.is_empty i in
      Docset.mem probe d = Intset.mem probe i
      && List.for_all (fun x -> Docset.mem x d) l
      && Docset.to_array d = arr
      && Docset.elements (Docset.of_intset i) = Intset.elements i
      && Intset.equal (Docset.to_intset d) i
      && Docset.fold (fun x acc -> x :: acc) d [] = List.rev (Intset.elements i)
      && Docset.equal_array d arr
      && Docset.is_empty d = empty
      && (empty || (Docset.choose d = arr.(0) && Docset.max_elt d = arr.(Array.length arr - 1))))

let prop_equality =
  QCheck.Test.make ~name:"equal, compare, fingerprint follow content" ~count:500 arb_pair
    (fun (a, b) ->
      let da = Docset.of_list a and db = Docset.of_list b in
      let same = Intset.equal (Intset.of_list a) (Intset.of_list b) in
      (* Rebuilt through algebra, the same content packs the same way. *)
      let rebuilt = Docset.union_many [ Docset.inter da db; Docset.diff da db ] in
      Docset.equal da db = same
      && (Docset.compare da db = 0) = same
      && Docset.compare da db = - Docset.compare db da
      && ((not same) || Docset.fingerprint da = Docset.fingerprint db)
      && Docset.equal rebuilt da
      && Docset.bytes rebuilt = Docset.bytes da
      && Docset.fingerprint rebuilt = Docset.fingerprint da)

let () =
  Alcotest.run "docset"
    [
      ( "arena",
        [
          Alcotest.test_case "empty preinterned" `Quick test_empty_preinterned;
          Alcotest.test_case "intern rejects unsorted" `Quick test_intern_rejects_unsorted;
          Alcotest.test_case "representations" `Quick test_representations;
          Alcotest.test_case "queries" `Quick test_queries;
          Alcotest.test_case "cardinal family" `Quick test_cardinal_family;
          Alcotest.test_case "union_many" `Quick test_union_many_arena;
        ] );
      ( "handle",
        [
          Alcotest.test_case "basics" `Quick test_handle_basics;
          Alcotest.test_case "equal cross arena" `Quick test_handle_equal_cross_arena;
          Alcotest.test_case "algebra cross arena" `Quick test_handle_algebra_cross_arena;
          Alcotest.test_case "union_many" `Quick test_handle_union_many;
          Alcotest.test_case "intset roundtrip" `Quick test_intset_roundtrip;
          Alcotest.test_case "fingerprint of algebra" `Quick test_fingerprint_of_algebra;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_binops;
            prop_counts;
            prop_union_many;
            prop_queries;
            prop_equality;
            prop_inter_mask;
          ] );
    ]
