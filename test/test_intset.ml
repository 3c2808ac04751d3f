open Bionav_util
module IS = Set.Make (Int)

let set = Alcotest.testable Intset.pp Intset.equal

let test_of_list_dedup () =
  let s = Intset.of_list [ 3; 1; 2; 3; 1 ] in
  Alcotest.(check (list int)) "sorted unique" [ 1; 2; 3 ] (Intset.elements s);
  Alcotest.(check int) "cardinal" 3 (Intset.cardinal s)

let test_empty () =
  Alcotest.(check bool) "is_empty" true (Intset.is_empty Intset.empty);
  Alcotest.(check int) "cardinal" 0 (Intset.cardinal Intset.empty);
  Alcotest.(check bool) "nonempty" false (Intset.is_empty (Intset.singleton 5))

let test_mem () =
  let s = Intset.of_list [ 2; 4; 6; 8; 10 ] in
  List.iter (fun x -> Alcotest.(check bool) "member" true (Intset.mem x s)) [ 2; 4; 6; 8; 10 ];
  List.iter (fun x -> Alcotest.(check bool) "non-member" false (Intset.mem x s)) [ 1; 3; 5; 7; 9; 11 ]

let test_union_inter_diff () =
  let a = Intset.of_list [ 1; 2; 3; 4 ] and b = Intset.of_list [ 3; 4; 5 ] in
  Alcotest.check set "union" (Intset.of_list [ 1; 2; 3; 4; 5 ]) (Intset.union a b);
  Alcotest.check set "inter" (Intset.of_list [ 3; 4 ]) (Intset.inter a b);
  Alcotest.check set "diff" (Intset.of_list [ 1; 2 ]) (Intset.diff a b);
  Alcotest.check set "diff rev" (Intset.of_list [ 5 ]) (Intset.diff b a)

let test_union_with_empty () =
  let a = Intset.of_list [ 1; 2 ] in
  Alcotest.check set "left empty" a (Intset.union Intset.empty a);
  Alcotest.check set "right empty" a (Intset.union a Intset.empty)

let test_inter_cardinal () =
  let a = Intset.of_list [ 1; 3; 5; 7 ] and b = Intset.of_list [ 3; 4; 5; 6 ] in
  Alcotest.(check int) "matches inter" (Intset.cardinal (Intset.inter a b)) (Intset.inter_cardinal a b)

let test_add_remove () =
  let s = Intset.of_list [ 1; 3 ] in
  Alcotest.check set "add" (Intset.of_list [ 1; 2; 3 ]) (Intset.add 2 s);
  Alcotest.check set "add existing" s (Intset.add 3 s);
  Alcotest.check set "remove" (Intset.of_list [ 1 ]) (Intset.remove 3 s);
  Alcotest.check set "remove absent" s (Intset.remove 9 s)

let test_union_many () =
  let sets = [ Intset.of_list [ 1; 2 ]; Intset.of_list [ 2; 3 ]; Intset.of_list [ 4 ] ] in
  Alcotest.check set "union_many" (Intset.of_list [ 1; 2; 3; 4 ]) (Intset.union_many sets);
  Alcotest.check set "empty list" Intset.empty (Intset.union_many [])

let test_subset () =
  let a = Intset.of_list [ 1; 2 ] and b = Intset.of_list [ 1; 2; 3 ] in
  Alcotest.(check bool) "subset" true (Intset.subset a b);
  Alcotest.(check bool) "not subset" false (Intset.subset b a);
  Alcotest.(check bool) "empty subset" true (Intset.subset Intset.empty a)

let test_choose () =
  Alcotest.(check int) "smallest" 2 (Intset.choose (Intset.of_list [ 5; 2; 9 ]));
  Alcotest.check_raises "empty" Not_found (fun () -> ignore (Intset.choose Intset.empty))

let test_fold_iter () =
  let s = Intset.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "fold sum" 6 (Intset.fold ( + ) s 0);
  let acc = ref [] in
  Intset.iter (fun x -> acc := x :: !acc) s;
  Alcotest.(check (list int)) "iter ascending" [ 3; 2; 1 ] !acc

let test_to_array_fresh () =
  let s = Intset.of_list [ 1; 2 ] in
  let a = Intset.to_array s in
  a.(0) <- 99;
  Alcotest.(check (list int)) "original intact" [ 1; 2 ] (Intset.elements s)

let test_of_sorted_array_unchecked () =
  let s = Intset.of_sorted_array_unchecked [| 1; 4; 9 |] in
  Alcotest.(check (list int)) "adopted" [ 1; 4; 9 ] (Intset.elements s)

(* Model-based properties against stdlib Set. *)
let model l = IS.of_list l
let to_model s = IS.of_list (Intset.elements s)

let gen_list = QCheck.(list_of_size (QCheck.Gen.int_range 0 60) (int_range 0 100))

let qcheck_union =
  QCheck.Test.make ~name:"union matches model" ~count:500 (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      IS.equal
        (to_model (Intset.union (Intset.of_list a) (Intset.of_list b)))
        (IS.union (model a) (model b)))

let qcheck_inter =
  QCheck.Test.make ~name:"inter matches model" ~count:500 (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      IS.equal
        (to_model (Intset.inter (Intset.of_list a) (Intset.of_list b)))
        (IS.inter (model a) (model b)))

let qcheck_diff =
  QCheck.Test.make ~name:"diff matches model" ~count:500 (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      IS.equal
        (to_model (Intset.diff (Intset.of_list a) (Intset.of_list b)))
        (IS.diff (model a) (model b)))

let qcheck_union_many =
  QCheck.Test.make ~name:"union_many matches folded model" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 8) gen_list)
    (fun ls ->
      IS.equal
        (to_model (Intset.union_many (List.map Intset.of_list ls)))
        (List.fold_left (fun acc l -> IS.union acc (model l)) IS.empty ls))

(* Satellite: the heap-based large-k merge path (k > 8) against a plain
   fold of binary unions. *)
let qcheck_union_many_heap =
  QCheck.Test.make ~name:"union_many heap path matches fold of union" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 9 24) gen_list)
    (fun ls ->
      let sets = List.map Intset.of_list ls in
      Intset.equal (Intset.union_many sets)
        (List.fold_left Intset.union Intset.empty sets))

let qcheck_mem =
  QCheck.Test.make ~name:"mem matches model" ~count:500 (QCheck.pair gen_list (QCheck.int_range 0 100))
    (fun (l, x) -> Intset.mem x (Intset.of_list l) = IS.mem x (model l))

let qcheck_inter_cardinal =
  QCheck.Test.make ~name:"inter_cardinal consistent" ~count:500 (QCheck.pair gen_list gen_list)
    (fun (a, b) ->
      let sa = Intset.of_list a and sb = Intset.of_list b in
      Intset.inter_cardinal sa sb = Intset.cardinal (Intset.inter sa sb))

(* Construction against [List.sort_uniq], over unsorted, sorted,
   strictly sorted and reversed input, with duplicates and the extreme
   ints; the input array must be left as it was and never adopted. *)
let qcheck_of_array =
  let gen =
    QCheck.Gen.(
      let elt = frequency [ (8, int_range (-20) 20); (1, return min_int); (1, return max_int); (1, int) ] in
      list_size (int_range 0 40) elt >>= fun l ->
      oneofl
        [ l; List.sort compare l; List.sort_uniq compare l; List.rev (List.sort_uniq compare l) ])
  in
  QCheck.Test.make ~name:"of_array/of_list = List.sort_uniq" ~count:1000
    (QCheck.make ~print:QCheck.Print.(list int) gen)
    (fun l ->
      let expected = List.sort_uniq compare l in
      let a = Array.of_list l in
      let s = Intset.of_array a in
      Array.iteri (fun i x -> a.(i) <- x + 1) a;
      Intset.elements s = expected
      && Intset.elements (Intset.of_list l) = expected
      && List.for_all2 (fun x y -> x + 1 = y) l (Array.to_list a))

let () =
  Alcotest.run "intset"
    [
      ( "unit",
        [
          Alcotest.test_case "of_list dedup" `Quick test_of_list_dedup;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "mem" `Quick test_mem;
          Alcotest.test_case "union/inter/diff" `Quick test_union_inter_diff;
          Alcotest.test_case "union with empty" `Quick test_union_with_empty;
          Alcotest.test_case "inter_cardinal" `Quick test_inter_cardinal;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "union_many" `Quick test_union_many;
          Alcotest.test_case "subset" `Quick test_subset;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "fold/iter" `Quick test_fold_iter;
          Alcotest.test_case "to_array fresh" `Quick test_to_array_fresh;
          Alcotest.test_case "of_sorted_array_unchecked" `Quick test_of_sorted_array_unchecked;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_union;
          QCheck_alcotest.to_alcotest qcheck_inter;
          QCheck_alcotest.to_alcotest qcheck_diff;
          QCheck_alcotest.to_alcotest qcheck_union_many;
          QCheck_alcotest.to_alcotest qcheck_union_many_heap;
          QCheck_alcotest.to_alcotest qcheck_mem;
          QCheck_alcotest.to_alcotest qcheck_inter_cardinal;
          QCheck_alcotest.to_alcotest qcheck_of_array;
        ] );
    ]
