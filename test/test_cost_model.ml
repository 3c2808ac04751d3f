open Bionav_util
open Bionav_core

let feq = Alcotest.(check (float 1e-9))

let mk parent results totals =
  Comp_tree.make ~parent ~results:(Array.map Docset.of_list results) ~totals ()

(*      0 {0,1}
       / \
      1   2
      |   {4,5}
      3
   1={1,2} 3={3}    *)
let sample () =
  mk [| -1; 0; 0; 1 |] [| [ 0; 1 ]; [ 1; 2 ]; [ 4; 5 ]; [ 3 ] |] [| 50; 10; 10; 5 |]

let ctx () = Cost_model.create (sample ())

let test_full_mask () =
  let c = ctx () in
  Alcotest.(check int) "all bits" 0b1111 (Cost_model.full_mask c)

let test_members_roundtrip () =
  let c = ctx () in
  Alcotest.(check (list int)) "members" [ 0; 2; 3 ] (Cost_model.members c 0b1101);
  Alcotest.(check int) "mask_of" 0b1101 (Cost_model.mask_of [ 0; 2; 3 ])

let test_root_of () =
  let c = ctx () in
  Alcotest.(check int) "root of full" 0 (Cost_model.root_of c 0b1111);
  Alcotest.(check int) "root of subtree" 1 (Cost_model.root_of c 0b1010)

let test_subtree_mask () =
  let c = ctx () in
  Alcotest.(check int) "subtree of 1" 0b1010 (Cost_model.subtree_mask c ~mask:0b1111 1);
  (* With 3 removed from the mask, subtree of 1 is just 1. *)
  Alcotest.(check int) "restricted" 0b0010 (Cost_model.subtree_mask c ~mask:0b0111 1);
  Alcotest.(check int) "leaf" 0b1000 (Cost_model.subtree_mask c ~mask:0b1111 3)

let test_distinct () =
  let c = ctx () in
  Alcotest.(check int) "full distinct" 6 (Cost_model.distinct c 0b1111);
  Alcotest.(check int) "overlap collapses" 3 (Cost_model.distinct c 0b0011);
  (* A second read of the table agrees. *)
  Alcotest.(check int) "repeat stable" 3 (Cost_model.distinct c 0b0011);
  Alcotest.(check int) "empty mask" 0 (Cost_model.distinct c 0);
  Alcotest.(check int) "bits beyond the tree ignored" 3
    (Cost_model.distinct c (0b0011 lor (1 lsl 20)))

let test_p_explore_conservation () =
  let c = ctx () in
  let full = Cost_model.p_explore c 0b1111 in
  feq "full tree explores" 1.0 full;
  let parts = [ 0b0001; 0b0010; 0b0100; 0b1000 ] in
  let sum = List.fold_left (fun acc m -> acc +. Cost_model.p_explore c m) 0. parts in
  feq "partition conserves mass" 1.0 sum

let test_branch_probability () =
  let c = ctx () in
  let p = Cost_model.branch_probability c ~parent_mask:0b1111 ~branch_mask:0b0010 in
  feq "ratio" (Cost_model.p_explore c 0b0010) p;
  feq "self" 1.0 (Cost_model.branch_probability c ~parent_mask:0b0010 ~branch_mask:0b0010)

let test_cost_leaf () =
  let c = ctx () in
  feq "conditional showresults" 3. (Cost_model.cost_leaf c 0b0011)

let test_cost_formula () =
  let c = ctx () in
  let mask = 0b1111 in
  let px = Cost_model.p_expand c mask in
  let expected =
    ((1. -. px) *. 6.) +. (px *. (Probability.default_params.Probability.expand_cost +. 7.))
  in
  feq "formula" expected (Cost_model.cost c ~mask ~cut_term:7.)

let test_cost_unstructured_single_concept () =
  let c = ctx () in
  (* A real single concept: no expansion possible, cost = |L|. *)
  feq "showresults" 2. (Cost_model.cost_unstructured c 0b0001)

let test_cost_unstructured_supernode () =
  let t =
    Comp_tree.make ~parent:[| -1 |]
      ~results:[| Docset.of_list (List.init 60 Fun.id) |]
      ~totals:[| 120 |] ~multiplicity:[| 100 |]
      ~sub_weights:[| Array.make 100 0.6 |]
      ()
  in
  let c = Cost_model.create t in
  let cost = Cost_model.cost_unstructured c 0b1 in
  (* |L| = 60 > upper threshold so px = 1: cost = expand_cost + future(100). *)
  let expected =
    Probability.default_params.Probability.expand_cost
    +. Probability.future_drilldown_cost Probability.default_params 100
  in
  feq "surrogate" expected cost;
  Alcotest.(check bool) "far below showresults" true (cost < 60.)

let test_underlying () =
  let t =
    Comp_tree.make ~parent:[| -1; 0 |]
      ~results:[| Docset.of_list [ 1 ]; Docset.of_list [ 2 ] |]
      ~totals:[| 5; 5 |] ~multiplicity:[| 7; 2 |] ()
  in
  let c = Cost_model.create t in
  Alcotest.(check int) "sums multiplicity" 9 (Cost_model.underlying c 0b11)

let test_create_rejects_oversize () =
  let n = Cost_model.max_size + 1 in
  let parent = Array.init n (fun i -> if i = 0 then -1 else 0) in
  let results = Array.init n (fun i -> Docset.singleton i) in
  let totals = Array.make n 5 in
  let t = Comp_tree.make ~parent ~results ~totals () in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Cost_model.create t);
       false
     with Invalid_argument _ -> true)

let test_root_of_rejects_empty () =
  let c = ctx () in
  Alcotest.(check bool) "empty mask" true
    (try
       ignore (Cost_model.root_of c 0);
       false
     with Invalid_argument _ -> true)

(* Satellite regression: node indices outside the mask's word range must
   fail loudly instead of silently shifting out of the bitmask. *)
let test_mask_of_rejects_out_of_range () =
  Alcotest.(check int) "in range" 0b110 (Cost_model.mask_of [ 1; 2 ]);
  let rejects nodes =
    try
      ignore (Cost_model.mask_of nodes);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative index" true (rejects [ -1 ]);
  Alcotest.(check bool) "index = max_size" true (rejects [ Cost_model.max_size ]);
  Alcotest.(check bool) "index > max_size" true (rejects [ 0; 1; 62 ])

(* The one-pass signature table against both oracles on every mask of
   trees of 1-16 nodes: empty nodes, identical, nested and disjoint sets,
   with dense ids (the scratch) and scattered ones (the sorted fallback).
   The union oracle is the slow one; [~union:false] checks only the
   merge. *)
let matches_oracles ?(union = true) tree =
  let c = Cost_model.create tree and merged = Cost_model_oracle.merge_distinct tree in
  let ok = ref true and mask = ref 0 in
  while !ok && !mask <= Cost_model.full_mask c do
    let d = Cost_model.distinct c !mask in
    ok := d = merged !mask && ((not union) || d = Cost_model_oracle.distinct tree !mask);
    incr mask
  done;
  !ok

let qcheck_distinct_matches_oracle =
  QCheck.Test.make ~name:"distinct = union oracle on every mask" ~count:300
    Comp_tree_gen.small_gen (fun spec -> matches_oracles (Comp_tree_gen.small_tree spec))

let qcheck_scattered_distinct_matches_oracle =
  QCheck.Test.make ~name:"distinct = merge oracle on every mask, scattered ids" ~count:200
    Comp_tree_gen.small_gen (fun spec ->
      matches_oracles ~union:false (Comp_tree_gen.scatter (Comp_tree_gen.small_tree spec)))

(* Ids at both ends of the int range: their span overflows, which must
   select the sorted fallback rather than index a scratch. *)
let test_signature_extreme_ids () =
  let t =
    mk [| -1; 0; 0 |] [| [ min_int; 0 ]; [ 0; max_int ]; [ max_int; 5 ] |] [| 5; 5; 5 |]
  in
  let s = Comp_tree.signature t in
  Alcotest.(check int) "covered" 4 (Signature.covered s);
  Alcotest.(check (list int)) "per node" [ 2; 2; 2 ] (List.init 3 (Signature.count s));
  Alcotest.(check int) "nodes 1 and 2" 3 (Signature.distinct s 0b110);
  Alcotest.(check bool) "matches oracles" true (matches_oracles t)

(* A call rejected for a bad part must leave the per-domain scratch
   clear: the next pass counts as if it had never happened. *)
let test_signature_rejects_cleanly () =
  let sets = Array.map Docset.of_list [| [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] |] in
  let rejects part =
    try
      ignore (Signature.of_sets ~n:3 ~set:(Array.get sets) ~part ~parts:2);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "part beyond parts" true (rejects (fun v -> v));
  Alcotest.(check bool) "negative part" true (rejects (fun v -> if v = 2 then -1 else 0));
  let s = Signature.of_sets ~n:3 ~set:(Array.get sets) ~part:(fun v -> v / 2) ~parts:2 in
  Alcotest.(check int) "covered" 4 (Signature.covered s);
  Alcotest.(check (list int)) "per part" [ 3; 2 ] [ Signature.count s 0; Signature.count s 1 ]

let () =
  Alcotest.run "cost_model"
    [
      ( "unit",
        [
          Alcotest.test_case "full mask" `Quick test_full_mask;
          Alcotest.test_case "members roundtrip" `Quick test_members_roundtrip;
          Alcotest.test_case "root_of" `Quick test_root_of;
          Alcotest.test_case "subtree_mask" `Quick test_subtree_mask;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "explore conservation" `Quick test_p_explore_conservation;
          Alcotest.test_case "branch probability" `Quick test_branch_probability;
          Alcotest.test_case "cost_leaf" `Quick test_cost_leaf;
          Alcotest.test_case "cost formula" `Quick test_cost_formula;
          Alcotest.test_case "unstructured single" `Quick test_cost_unstructured_single_concept;
          Alcotest.test_case "unstructured supernode" `Quick test_cost_unstructured_supernode;
          Alcotest.test_case "underlying" `Quick test_underlying;
          Alcotest.test_case "rejects oversize" `Quick test_create_rejects_oversize;
          Alcotest.test_case "root_of empty" `Quick test_root_of_rejects_empty;
          Alcotest.test_case "mask_of range guard" `Quick test_mask_of_rejects_out_of_range;
          Alcotest.test_case "signature extreme ids" `Quick test_signature_extreme_ids;
          Alcotest.test_case "signature rejects cleanly" `Quick test_signature_rejects_cleanly;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_distinct_matches_oracle;
          QCheck_alcotest.to_alcotest qcheck_scattered_distinct_matches_oracle;
        ] );
    ]
