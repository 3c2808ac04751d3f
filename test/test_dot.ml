open Bionav_util
open Bionav_core

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let nav () =
  let h =
    Bionav_mesh.Hierarchy.of_parents
      ~labels:(fun i -> [| "root"; "alpha \"x\""; "beta"; "gamma" |].(i))
      [| -1; 0; 1; 0 |]
  in
  Nav_tree.build ~hierarchy:h
    ~attachments:
      [ (1, Docset.of_list [ 1; 2 ]); (2, Docset.of_list [ 2; 3 ]); (3, Docset.of_list [ 4 ]) ]
    ~total_count:(fun _ -> 50)

let test_nav_tree_dot () =
  let d = Dot.nav_tree (nav ()) in
  Alcotest.(check bool) "digraph" true (contains ~sub:"digraph" d);
  Alcotest.(check bool) "edges" true (contains ~sub:"n0 -> n1" d);
  Alcotest.(check bool) "counts" true (contains ~sub:"(3)" d);
  Alcotest.(check bool) "quotes escaped" true (contains ~sub:"alpha \\\"x\\\"" d)

let test_nav_tree_truncation () =
  let d = Dot.nav_tree ~max_nodes:2 (nav ()) in
  Alcotest.(check bool) "ellipsis marker" true (contains ~sub:"more..." d);
  Alcotest.(check bool) "dashed edge" true (contains ~sub:"style=dashed" d)

let test_active_tree_dot () =
  let active = Active_tree.create (nav ()) in
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 1 ]);
  let d = Dot.active_tree active in
  Alcotest.(check bool) "visible edge" true (contains ~sub:"n0 -> n1" d);
  (* Hidden node 3 must not appear as a node statement. *)
  Alcotest.(check bool) "hidden absent" false (contains ~sub:"n3 [label" d);
  Alcotest.(check bool) "expandable bold" true (contains ~sub:"style=bold" d)

let test_component_dot () =
  let comp, _ = Nav_tree.comp_tree_of (nav ()) ~root:0 ~members:[| 0; 1; 2; 3 |] in
  let d = Dot.component comp in
  Alcotest.(check bool) "L/LT labels" true (contains ~sub:"L=2 LT=50" d);
  Alcotest.(check bool) "edges" true (contains ~sub:"n1 -> n2" d)

let () =
  Alcotest.run "dot"
    [
      ( "unit",
        [
          Alcotest.test_case "nav tree" `Quick test_nav_tree_dot;
          Alcotest.test_case "truncation" `Quick test_nav_tree_truncation;
          Alcotest.test_case "active tree" `Quick test_active_tree_dot;
          Alcotest.test_case "component" `Quick test_component_dot;
        ] );
    ]
