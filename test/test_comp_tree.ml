open Bionav_util
open Bionav_core

let mk ?labels ?tags ?multiplicity ?sub_weights parent results totals =
  Comp_tree.make ~parent
    ~results:(Array.map Docset.of_list results)
    ~totals ?labels ?tags ?multiplicity ?sub_weights ()

(*      0 {1,2}
       / \
  {1} 1   2 {2,3}
      |
      3 {4}          *)
let sample () =
  mk [| -1; 0; 0; 1 |] [| [ 1; 2 ]; [ 1 ]; [ 2; 3 ]; [ 4 ] |] [| 100; 10; 20; 5 |]

let test_structure () =
  let t = sample () in
  Alcotest.(check int) "size" 4 (Comp_tree.size t);
  Alcotest.(check int) "root" 0 (Comp_tree.root t);
  Alcotest.(check (list int)) "root children" [ 1; 2 ] (Comp_tree.children t 0);
  Alcotest.(check int) "parent of 3" 1 (Comp_tree.parent t 3);
  Alcotest.(check bool) "leaf" true (Comp_tree.is_leaf t 3);
  Alcotest.(check bool) "internal" false (Comp_tree.is_leaf t 1);
  Alcotest.(check int) "depth" 2 (Comp_tree.depth t 3)

let test_counts () =
  let t = sample () in
  Alcotest.(check int) "L(0)" 2 (Comp_tree.result_count t 0);
  Alcotest.(check int) "LT(0)" 100 (Comp_tree.total t 0);
  Alcotest.(check int) "distinct all" 4 (Docset.cardinal (Comp_tree.all_results t));
  (* 6 attached, 4 distinct. *)
  Alcotest.(check int) "duplicates" 2 (Comp_tree.duplicate_count t)

let test_subtree_nodes () =
  let t = sample () in
  Alcotest.(check (list int)) "subtree of 1" [ 1; 3 ] (Comp_tree.subtree_nodes t 1);
  Alcotest.(check (list int)) "whole tree" [ 0; 1; 3; 2 ] (Comp_tree.subtree_nodes t 0)

let test_distinct_of_nodes () =
  let t = sample () in
  Alcotest.(check int) "subset distinct" 3
    (Docset.cardinal (Comp_tree.distinct_of_nodes t [ 0; 2 ]))

let test_defaults () =
  let t = sample () in
  Alcotest.(check int) "default tag" 2 (Comp_tree.tag t 2);
  Alcotest.(check string) "default label" "c2" (Comp_tree.label t 2);
  Alcotest.(check int) "default multiplicity" 1 (Comp_tree.multiplicity t 2);
  Alcotest.(check (array (float 1e-9))) "default sub_weights" [| 2. |] (Comp_tree.sub_weights t 2)

let test_custom_metadata () =
  let t =
    mk ~labels:[| "r"; "a" |] ~tags:[| 10; 20 |] ~multiplicity:[| 3; 1 |]
      ~sub_weights:[| [| 1.; 2.; 3. |]; [| 4. |] |]
      [| -1; 0 |] [| [ 1 ]; [ 2 ] |] [| 5; 5 |]
  in
  Alcotest.(check string) "label" "a" (Comp_tree.label t 1);
  Alcotest.(check int) "tag" 20 (Comp_tree.tag t 1);
  Alcotest.(check int) "multiplicity" 3 (Comp_tree.multiplicity t 0);
  Alcotest.(check (array (float 1e-9))) "sub_weights" [| 1.; 2.; 3. |] (Comp_tree.sub_weights t 0)

let rejects f = try ignore (f ()); false with Invalid_argument _ -> true

let test_validation () =
  Alcotest.(check bool) "empty" true (rejects (fun () -> mk [||] [||] [||]));
  Alcotest.(check bool) "bad root" true
    (rejects (fun () -> mk [| 0 |] [| [ 1 ] |] [| 1 |]));
  Alcotest.(check bool) "forward parent" true
    (rejects (fun () -> mk [| -1; 2; 0 |] [| [ 1 ]; [ 1 ]; [ 1 ] |] [| 1; 1; 1 |]));
  Alcotest.(check bool) "LT < L" true
    (rejects (fun () -> mk [| -1 |] [| [ 1; 2 ] |] [| 1 |]));
  Alcotest.(check bool) "results but zero LT" true
    (rejects (fun () -> mk [| -1; 0 |] [| []; [ 1 ] |] [| 0; 0 |]));
  Alcotest.(check bool) "multiplicity < 1" true
    (rejects (fun () ->
         mk ~multiplicity:[| 0 |] [| -1 |] [| [ 1 ] |] [| 1 |]))

let test_singleton () =
  let t = Comp_tree.singleton ~results:(Docset.of_list [ 7; 8 ]) ~total:10 ~label:"solo" () in
  Alcotest.(check int) "size" 1 (Comp_tree.size t);
  Alcotest.(check string) "label" "solo" (Comp_tree.label t 0);
  Alcotest.(check int) "distinct" 2 (Docset.cardinal (Comp_tree.all_results t))

let test_empty_root_results_allowed () =
  let t = mk [| -1; 0 |] [| []; [ 1 ] |] [| 0; 5 |] in
  Alcotest.(check int) "root L" 0 (Comp_tree.result_count t 0);
  Alcotest.(check int) "distinct" 1 (Docset.cardinal (Comp_tree.all_results t))

(* A view reads the shared arrays through [ids] and copies nothing. *)
let test_view () =
  let results = Array.map Docset.of_list [| [ 9 ]; [ 1; 2 ]; [ 5 ]; [ 2; 3 ] |] in
  let totals = [| 1; 10; 20; 30 |] and labels = [| "w"; "x"; "y"; "z" |] in
  let t =
    Comp_tree.make ~parent:[| -1; 0 |] ~ids:[| 1; 3 |] ~results ~totals ~labels
      ~concepts:[| 40; 41; 42; 43 |] ()
  in
  Alcotest.(check int) "size" 2 (Comp_tree.size t);
  Alcotest.(check (list int)) "results" [ 2; 3 ] (Docset.elements (Comp_tree.results t 1));
  Alcotest.(check int) "L" 2 (Comp_tree.result_count t 1);
  Alcotest.(check int) "LT" 30 (Comp_tree.total t 1);
  Alcotest.(check string) "label" "x" (Comp_tree.label t 0);
  Alcotest.(check int) "concept" 43 (Comp_tree.concept t 1);
  Alcotest.(check int) "tag is the index" 1 (Comp_tree.tag t 1);
  Alcotest.(check int) "distinct" 3 (Docset.cardinal (Comp_tree.all_results t));
  Alcotest.(check bool) "id beyond the shared arrays" true
    (rejects (fun () -> Comp_tree.make ~parent:[| -1 |] ~ids:[| 4 |] ~results ~totals ()));
  Alcotest.(check bool) "negative id" true
    (rejects (fun () -> Comp_tree.make ~parent:[| -1 |] ~ids:[| -1 |] ~results ~totals ()));
  Alcotest.(check bool) "ids length" true
    (rejects (fun () -> Comp_tree.make ~parent:[| -1; 0 |] ~ids:[| 0 |] ~results ~totals ()))

let test_pp_renders () =
  let t = sample () in
  let s = Format.asprintf "%a" Comp_tree.pp t in
  Alcotest.(check bool) "mentions all nodes" true (String.length s > 20)

let () =
  Alcotest.run "comp_tree"
    [
      ( "unit",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "subtree nodes" `Quick test_subtree_nodes;
          Alcotest.test_case "distinct of nodes" `Quick test_distinct_of_nodes;
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "custom metadata" `Quick test_custom_metadata;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "empty root results" `Quick test_empty_root_results_allowed;
          Alcotest.test_case "view" `Quick test_view;
          Alcotest.test_case "pp" `Quick test_pp_renders;
        ] );
    ]
