open Bionav_util
open Bionav_core
module H = Bionav_mesh.Hierarchy
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module DB = Bionav_store.Database

(* Hierarchy (hierarchy ids):
     0 root
     1 "Biological Phenomena"      (empty)
     2   "Cell Physiology"         {1,2}
     3     "Cell Death"            (empty, lifted)
     4       "Apoptosis"           {3,4}
     5       "Necrosis"            (empty leaf, dropped)
     6   "Cell Growth"             (empty, lifted)
     7     "Cell Proliferation"    {2,5,6}
     8 "Chemicals"                 (empty leaf, dropped)  *)
let labels =
  [|
    "MeSH"; "Biological Phenomena"; "Cell Physiology"; "Cell Death"; "Apoptosis"; "Necrosis";
    "Cell Growth"; "Cell Proliferation"; "Chemicals";
  |]

let hierarchy () = H.of_parents ~labels:(fun i -> labels.(i)) [| -1; 0; 1; 2; 3; 3; 1; 6; 0 |]

let attachments =
  [ (2, Docset.of_list [ 1; 2 ]); (4, Docset.of_list [ 3; 4 ]); (7, Docset.of_list [ 2; 5; 6 ]) ]

let totals = [| 0; 50; 10; 20; 30; 5; 40; 25; 60 |]

let build () =
  Nav_tree.build ~hierarchy:(hierarchy ()) ~attachments ~total_count:(fun c -> totals.(c))

let test_maximum_embedding_shape () =
  let t = build () in
  (* Kept: root, Cell Physiology, Apoptosis (lifted under Cell Physiology),
     Cell Proliferation (lifted under root? no — under Biological Phenomena
     which is empty, itself lifted to root). *)
  Alcotest.(check int) "size" 4 (Nav_tree.size t);
  let labels_found = List.init 4 (Nav_tree.label t) in
  Alcotest.(check (list string)) "preorder labels"
    [ "MeSH"; "Cell Physiology"; "Apoptosis"; "Cell Proliferation" ]
    labels_found

let test_embedding_preserves_ancestry () =
  let t = build () in
  (* Apoptosis was a great-grandchild of Biological Phenomena via Cell Death;
     after embedding its parent is Cell Physiology (nearest kept ancestor). *)
  let apoptosis = Option.get (Nav_tree.node_of_concept t 4) in
  let physiology = Option.get (Nav_tree.node_of_concept t 2) in
  Alcotest.(check int) "lifted parent" physiology (Nav_tree.parent t apoptosis);
  let proliferation = Option.get (Nav_tree.node_of_concept t 7) in
  Alcotest.(check int) "lifted to root" 0 (Nav_tree.parent t proliferation)

let test_empty_nodes_dropped () =
  let t = build () in
  List.iter
    (fun c ->
      Alcotest.(check (option int)) (Printf.sprintf "concept %d dropped" c) None
        (Nav_tree.node_of_concept t c))
    [ 1; 3; 5; 6; 8 ]

let test_counts () =
  let t = build () in
  Alcotest.(check int) "distinct results" 6 (Nav_tree.distinct_results t);
  Alcotest.(check int) "attached with duplicates" 7 (Nav_tree.total_attached t);
  let physiology = Option.get (Nav_tree.node_of_concept t 2) in
  Alcotest.(check int) "L" 2 (Nav_tree.result_count t physiology);
  Alcotest.(check int) "LT" 10 (Nav_tree.total t physiology);
  (* Subtree distinct of Cell Physiology = {1,2} u {3,4} = 4. *)
  Alcotest.(check int) "subtree distinct" 4 (Nav_tree.subtree_distinct t physiology)

let test_root_subtree_distinct_is_result_size () =
  let t = build () in
  Alcotest.(check int) "root covers all" (Nav_tree.distinct_results t)
    (Nav_tree.subtree_distinct t 0)

let test_height_width () =
  let t = build () in
  Alcotest.(check int) "height" 2 (Nav_tree.height t);
  Alcotest.(check int) "width" 2 (Nav_tree.max_width t)

let test_in_subtree () =
  let t = build () in
  let physiology = Option.get (Nav_tree.node_of_concept t 2) in
  let apoptosis = Option.get (Nav_tree.node_of_concept t 4) in
  let proliferation = Option.get (Nav_tree.node_of_concept t 7) in
  Alcotest.(check bool) "contains descendant" true
    (Nav_tree.in_subtree t ~root:physiology apoptosis);
  Alcotest.(check bool) "self" true (Nav_tree.in_subtree t ~root:physiology physiology);
  Alcotest.(check bool) "not sibling branch" false
    (Nav_tree.in_subtree t ~root:physiology proliferation);
  Alcotest.(check bool) "root contains all" true (Nav_tree.in_subtree t ~root:0 apoptosis)

let test_comp_tree_of_full () =
  let t = build () in
  let comp, map = Nav_tree.comp_tree_of t ~root:0 ~members:[| 0; 1; 2; 3 |] in
  Alcotest.(check int) "size" 4 (Comp_tree.size comp);
  Alcotest.(check (array int)) "map" [| 0; 1; 2; 3 |] map;
  Alcotest.(check int) "tags are nav ids" 2 (Comp_tree.tag comp 2);
  Alcotest.(check int) "parents preserved" 1 (Comp_tree.parent comp 2)

let test_comp_tree_of_partial () =
  let t = build () in
  let physiology = Option.get (Nav_tree.node_of_concept t 2) in
  let apoptosis = Option.get (Nav_tree.node_of_concept t 4) in
  let comp, _ = Nav_tree.comp_tree_of t ~root:physiology ~members:[| physiology; apoptosis |] in
  Alcotest.(check int) "two nodes" 2 (Comp_tree.size comp);
  Alcotest.(check string) "root label" "Cell Physiology" (Comp_tree.label comp 0)

let test_comp_tree_of_rejects_disconnected () =
  let t = build () in
  let apoptosis = Option.get (Nav_tree.node_of_concept t 4) in
  Alcotest.(check bool) "disconnected" true
    (try
       ignore (Nav_tree.comp_tree_of t ~root:0 ~members:[| 0; apoptosis |]);
       false
     with Invalid_argument _ -> true)

let test_build_rejects_bad_attachment () =
  let h = hierarchy () in
  Alcotest.(check bool) "unknown concept" true
    (try
       ignore
         (Nav_tree.build ~hierarchy:h
            ~attachments:[ (99, Docset.singleton 1) ]
            ~total_count:(fun _ -> 10));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate attachment" true
    (try
       ignore
         (Nav_tree.build ~hierarchy:h
            ~attachments:[ (2, Docset.singleton 1); (2, Docset.singleton 2) ]
            ~total_count:(fun _ -> 10));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "total < attached" true
    (try
       ignore
         (Nav_tree.build ~hierarchy:h
            ~attachments:[ (2, Docset.of_list [ 1; 2; 3 ]) ]
            ~total_count:(fun _ -> 1));
       false
     with Invalid_argument _ -> true)

let test_root_only_tree () =
  let h = hierarchy () in
  let t = Nav_tree.build ~hierarchy:h ~attachments:[] ~total_count:(fun _ -> 0) in
  Alcotest.(check int) "just the root" 1 (Nav_tree.size t);
  Alcotest.(check int) "no results" 0 (Nav_tree.distinct_results t)

(* Integration: of_database consistency on a generated corpus. *)
let test_of_database_consistency () =
  let h = S.generate ~params:S.small_params ~seed:61 () in
  let m = G.generate ~params:{ G.small_params with G.n_citations = 250 } ~seed:62 h in
  let db = DB.of_medline m in
  let result = Docset.of_list (List.init 40 (fun i -> i * 3)) in
  let t = Nav_tree.of_database db result in
  (* Every nav node's direct results are a subset of the query result, and
     all nodes except the root are non-empty. *)
  for node = 1 to Nav_tree.size t - 1 do
    let l = Nav_tree.results t node in
    Alcotest.(check bool) "non-empty" true (not (Docset.is_empty l));
    Alcotest.(check bool) "subset of result" true (Docset.subset l result);
    Alcotest.(check bool) "LT >= L" true
      (Nav_tree.total t node >= Nav_tree.result_count t node)
  done;
  Alcotest.(check int) "root distinct = |result|" (Docset.cardinal result)
    (Nav_tree.distinct_results t);
  (* Parent relationships respect hierarchy ancestry. *)
  for node = 1 to Nav_tree.size t - 1 do
    let p = Nav_tree.parent t node in
    if p <> 0 then
      Alcotest.(check bool) "parent concept is ancestor" true
        (H.is_ancestor h (Nav_tree.concept_id t p) (Nav_tree.concept_id t node))
  done

let test_of_database_distinct_monotone () =
  let h = S.generate ~params:S.small_params ~seed:63 () in
  let m = G.generate ~params:{ G.small_params with G.n_citations = 250 } ~seed:64 h in
  let db = DB.of_medline m in
  let t = Nav_tree.of_database db (Docset.of_list (List.init 30 Fun.id)) in
  for node = 1 to Nav_tree.size t - 1 do
    Alcotest.(check bool) "child subtree counts bounded by parent" true
      (Nav_tree.subtree_distinct t node
      <= Nav_tree.subtree_distinct t (Nav_tree.parent t node))
  done

(* of_database buckets straight into docsets; building from the Intset
   buckets is the reference. Trees and their sets must agree node for
   node. *)
let test_of_database_matches_reference () =
  let h = S.generate ~params:S.small_params ~seed:65 () in
  let m = G.generate ~params:{ G.small_params with G.n_citations = 400 } ~seed:66 h in
  let db = DB.of_medline m in
  List.iter
    (fun ids ->
      let result = Docset.of_list ids in
      let t = Nav_tree.of_database db result in
      let attachments =
        List.map
          (fun (c, s) -> (c, Docset.of_intset s))
          (DB.concepts_of_result db (Docset.to_intset result))
      in
      let r =
        Nav_tree.build ~hierarchy:(DB.hierarchy db) ~attachments ~total_count:(DB.total_count db)
      in
      Alcotest.(check int) "size" (Nav_tree.size r) (Nav_tree.size t);
      for v = 0 to Nav_tree.size t - 1 do
        Alcotest.(check int) "concept" (Nav_tree.concept_id r v) (Nav_tree.concept_id t v);
        Alcotest.(check int) "parent" (Nav_tree.parent r v) (Nav_tree.parent t v);
        Alcotest.(check int) "total" (Nav_tree.total r v) (Nav_tree.total t v);
        Alcotest.(check string) "label" (Nav_tree.label r v) (Nav_tree.label t v);
        Alcotest.(check bool) "results" true
          (Docset.equal (Nav_tree.results r v) (Nav_tree.results t v));
        Alcotest.(check int) "subtree distinct" (Nav_tree.subtree_distinct r v)
          (Nav_tree.subtree_distinct t v);
        Alcotest.(check bool) "subtree results" true
          (Docset.equal (Nav_tree.subtree_results r v) (Nav_tree.subtree_results t v))
      done)
    [ List.init 60 (fun i -> i * 5); List.init 400 Fun.id; [ 7 ]; [] ]

let () =
  Alcotest.run "nav_tree"
    [
      ( "embedding",
        [
          Alcotest.test_case "shape" `Quick test_maximum_embedding_shape;
          Alcotest.test_case "ancestry preserved" `Quick test_embedding_preserves_ancestry;
          Alcotest.test_case "empty dropped" `Quick test_empty_nodes_dropped;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "root distinct" `Quick test_root_subtree_distinct_is_result_size;
          Alcotest.test_case "height/width" `Quick test_height_width;
          Alcotest.test_case "root-only" `Quick test_root_only_tree;
        ] );
      ( "queries",
        [
          Alcotest.test_case "in_subtree" `Quick test_in_subtree;
          Alcotest.test_case "comp_tree full" `Quick test_comp_tree_of_full;
          Alcotest.test_case "comp_tree partial" `Quick test_comp_tree_of_partial;
          Alcotest.test_case "comp_tree disconnected" `Quick test_comp_tree_of_rejects_disconnected;
          Alcotest.test_case "rejects bad attachments" `Quick test_build_rejects_bad_attachment;
        ] );
      ( "integration",
        [
          Alcotest.test_case "of_database consistency" `Quick test_of_database_consistency;
          Alcotest.test_case "distinct monotone" `Quick test_of_database_distinct_monotone;
          Alcotest.test_case "matches reference build" `Quick test_of_database_matches_reference;
        ] );
    ]
