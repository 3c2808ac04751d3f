module H = Bionav_mesh.Hierarchy
module C = Bionav_mesh.Concept
module TN = Bionav_mesh.Tree_number

(*      0
       / \
      1   4
     /|    \
    2 3     5
            |
            6        *)
let sample () = H.of_parents [| -1; 0; 1; 1; 0; 4; 5 |]

let test_size_and_root () =
  let h = sample () in
  Alcotest.(check int) "size" 7 (H.size h);
  Alcotest.(check int) "root" 0 (H.root h);
  Alcotest.(check int) "root parent" (-1) (H.parent h 0)

let test_children () =
  let h = sample () in
  Alcotest.(check (list int)) "root children" [ 1; 4 ] (H.children h 0);
  Alcotest.(check (list int)) "node 1" [ 2; 3 ] (H.children h 1);
  Alcotest.(check (list int)) "leaf" [] (H.children h 6)

let test_depth () =
  let h = sample () in
  Alcotest.(check (list int)) "depths" [ 0; 1; 2; 2; 1; 2; 3 ]
    (List.init 7 (H.depth h))

let test_is_leaf () =
  let h = sample () in
  Alcotest.(check (list bool)) "leaves" [ false; false; true; true; false; false; true ]
    (List.init 7 (H.is_leaf h))

let test_subtree_size () =
  let h = sample () in
  Alcotest.(check int) "root" 7 (H.subtree_size h 0);
  Alcotest.(check int) "node 1" 3 (H.subtree_size h 1);
  Alcotest.(check int) "node 4" 3 (H.subtree_size h 4);
  Alcotest.(check int) "leaf" 1 (H.subtree_size h 6)

let test_height_width () =
  let h = sample () in
  Alcotest.(check int) "height" 3 (H.height h);
  Alcotest.(check int) "max width" 3 (H.max_width h)

let test_ancestors_path () =
  let h = sample () in
  Alcotest.(check (list int)) "ancestors of 6" [ 5; 4; 0 ] (H.ancestors h 6);
  Alcotest.(check (list int)) "ancestors of root" [] (H.ancestors h 0);
  Alcotest.(check (list int)) "path" [ 0; 4; 5; 6 ] (H.path_from_root h 6)

let test_is_ancestor () =
  let h = sample () in
  Alcotest.(check bool) "root of all" true (H.is_ancestor h 0 6);
  Alcotest.(check bool) "direct" true (H.is_ancestor h 4 5);
  Alcotest.(check bool) "transitive" true (H.is_ancestor h 4 6);
  Alcotest.(check bool) "not self" false (H.is_ancestor h 3 3);
  Alcotest.(check bool) "not sibling" false (H.is_ancestor h 1 4);
  Alcotest.(check bool) "not reverse" false (H.is_ancestor h 6 4)

let test_descendants () =
  let h = sample () in
  Alcotest.(check (list int)) "node 4" [ 5; 6 ] (H.descendants h 4);
  Alcotest.(check (list int)) "root" [ 1; 2; 3; 4; 5; 6 ] (H.descendants h 0);
  Alcotest.(check (list int)) "leaf" [] (H.descendants h 2)

let test_iter_subtree_preorder () =
  let h = sample () in
  let acc = ref [] in
  H.iter_subtree h 0 (fun i -> acc := i :: !acc);
  Alcotest.(check (list int)) "preorder" [ 0; 1; 2; 3; 4; 5; 6 ] (List.rev !acc)

let test_fold_postorder () =
  let h = sample () in
  let size = H.fold_postorder h 0 (fun _ kids -> 1 + List.fold_left ( + ) 0 kids) in
  Alcotest.(check int) "counts nodes" 7 size

let test_find_by_label () =
  let h = sample () in
  Alcotest.(check (option int)) "found" (Some 3) (H.find_by_label h "node-3");
  Alcotest.(check (option int)) "missing" None (H.find_by_label h "nope")

let test_find_by_tree_number () =
  let h = sample () in
  let t3 = C.tree_number (H.concept h 3) in
  Alcotest.(check (option int)) "found" (Some 3) (H.find_by_tree_number h t3);
  Alcotest.(check (option int)) "missing" None
    (H.find_by_tree_number h (TN.of_string "Z99.123"))

let test_nodes_at_depth () =
  let h = sample () in
  Alcotest.(check (list int)) "depth 0" [ 0 ] (H.nodes_at_depth h 0);
  Alcotest.(check (list int)) "depth 2" [ 2; 3; 5 ] (H.nodes_at_depth h 2);
  Alcotest.(check (list int)) "depth 9" [] (H.nodes_at_depth h 9)

let test_tree_numbers_consistent () =
  let h = sample () in
  for i = 1 to 6 do
    let tn = C.tree_number (H.concept h i) in
    let ptn = C.tree_number (H.concept h (H.parent h i)) in
    Alcotest.(check bool) "parent prefix" true (TN.equal (Option.get (TN.parent tn)) ptn)
  done

let test_build_rejects_bad_parent () =
  Alcotest.(check bool) "forward parent rejected" true
    (try
       ignore (H.of_parents [| -1; 2; 1 |]);
       false
     with Invalid_argument _ -> true)

let test_build_rejects_empty () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (H.of_parents [||]);
       false
     with Invalid_argument _ -> true)

let test_build_rejects_inconsistent_tree_numbers () =
  let mk id label tns = C.make ~id ~label ~tree_number:(TN.of_string tns) in
  let concepts = [| mk 0 "root" ""; mk 1 "a" "A"; mk 2 "b" "B.000" |] in
  Alcotest.(check bool) "inconsistent rejected" true
    (try
       ignore (H.build concepts ~parent:[| -1; 0; 1 |]);
       false
     with Invalid_argument _ -> true)

let test_custom_labels () =
  let h = H.of_parents ~labels:(Printf.sprintf "L%d") [| -1; 0 |] in
  Alcotest.(check string) "label" "L1" (H.label h 1)

let test_single_node () =
  let h = H.of_parents [| -1 |] in
  Alcotest.(check int) "height" 0 (H.height h);
  Alcotest.(check int) "width" 1 (H.max_width h);
  Alcotest.(check int) "subtree" 1 (H.subtree_size h 0)

(* Random-tree structural invariants. *)
let gen_parents =
  QCheck.make
    ~print:(fun a -> String.concat ";" (Array.to_list (Array.map string_of_int a)))
    QCheck.Gen.(
      int_range 1 40 >>= fun n ->
      let rec build i acc =
        if i >= n then return (Array.of_list (List.rev acc))
        else int_range 0 (i - 1) >>= fun p -> build (i + 1) (p :: acc)
      in
      build 1 [ -1 ])

let qcheck_depth_consistent =
  QCheck.Test.make ~name:"depth = parent depth + 1" ~count:200 gen_parents (fun parents ->
      let h = H.of_parents parents in
      let ok = ref true in
      for i = 1 to H.size h - 1 do
        if H.depth h i <> H.depth h (H.parent h i) + 1 then ok := false
      done;
      !ok)

let qcheck_subtree_sizes_sum =
  QCheck.Test.make ~name:"children subtree sizes sum to parent's - 1" ~count:200 gen_parents
    (fun parents ->
      let h = H.of_parents parents in
      let ok = ref true in
      for i = 0 to H.size h - 1 do
        let kids_sum = List.fold_left (fun a c -> a + H.subtree_size h c) 0 (H.children h i) in
        if H.subtree_size h i <> kids_sum + 1 then ok := false
      done;
      !ok)

(* Ranks are positions in [iter_subtree]'s preorder, and a subtree is
   exactly its rank interval. *)
let qcheck_preorder_rank =
  QCheck.Test.make ~name:"preorder ranks follow iter_subtree" ~count:200 gen_parents
    (fun parents ->
      let h = H.of_parents parents in
      let order = ref [] in
      H.iter_subtree h 0 (fun i -> order := i :: !order);
      let ok = ref true in
      List.iteri (fun r i -> if H.preorder_rank h i <> r then ok := false) (List.rev !order);
      for i = 0 to H.size h - 1 do
        List.iter
          (fun d ->
            let r = H.preorder_rank h d in
            if r <= H.preorder_rank h i || r > H.last_descendant_rank h i then ok := false)
          (H.descendants h i);
        if H.last_descendant_rank h i - H.preorder_rank h i + 1 <> H.subtree_size h i then
          ok := false
      done;
      !ok)

let qcheck_ancestors_match_is_ancestor =
  QCheck.Test.make ~name:"ancestors list agrees with is_ancestor" ~count:100 gen_parents
    (fun parents ->
      let h = H.of_parents parents in
      let ok = ref true in
      for i = 0 to H.size h - 1 do
        List.iter (fun a -> if not (H.is_ancestor h a i) then ok := false) (H.ancestors h i)
      done;
      !ok)

(* The values [build] records equal the folds over every depth they
   replaced. *)
let qcheck_height_width =
  QCheck.Test.make ~name:"height/max_width = fold over depths" ~count:300 gen_parents
    (fun parents ->
      let h = H.of_parents parents in
      let depths = List.init (H.size h) (H.depth h) in
      let height = List.fold_left max 0 depths in
      let width = List.init (height + 1) (fun d -> List.length (H.nodes_at_depth h d)) in
      H.height h = height && H.max_width h = List.fold_left max 0 width)

let () =
  Alcotest.run "hierarchy"
    [
      ( "unit",
        [
          Alcotest.test_case "size and root" `Quick test_size_and_root;
          Alcotest.test_case "children" `Quick test_children;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "is_leaf" `Quick test_is_leaf;
          Alcotest.test_case "subtree size" `Quick test_subtree_size;
          Alcotest.test_case "height/width" `Quick test_height_width;
          Alcotest.test_case "ancestors/path" `Quick test_ancestors_path;
          Alcotest.test_case "is_ancestor" `Quick test_is_ancestor;
          Alcotest.test_case "descendants" `Quick test_descendants;
          Alcotest.test_case "iter preorder" `Quick test_iter_subtree_preorder;
          Alcotest.test_case "fold postorder" `Quick test_fold_postorder;
          Alcotest.test_case "find by label" `Quick test_find_by_label;
          Alcotest.test_case "find by tree number" `Quick test_find_by_tree_number;
          Alcotest.test_case "nodes at depth" `Quick test_nodes_at_depth;
          Alcotest.test_case "tree numbers consistent" `Quick test_tree_numbers_consistent;
          Alcotest.test_case "rejects bad parent" `Quick test_build_rejects_bad_parent;
          Alcotest.test_case "rejects empty" `Quick test_build_rejects_empty;
          Alcotest.test_case "rejects inconsistent tree numbers" `Quick
            test_build_rejects_inconsistent_tree_numbers;
          Alcotest.test_case "custom labels" `Quick test_custom_labels;
          Alcotest.test_case "single node" `Quick test_single_node;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_depth_consistent;
          QCheck_alcotest.to_alcotest qcheck_subtree_sizes_sum;
          QCheck_alcotest.to_alcotest qcheck_ancestors_match_is_ancestor;
          QCheck_alcotest.to_alcotest qcheck_preorder_rank;
          QCheck_alcotest.to_alcotest qcheck_height_width;
        ] );
    ]
