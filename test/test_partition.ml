open Bionav_util
open Bionav_core

let mk parent results totals =
  Comp_tree.make ~parent ~results:(Array.map Docset.of_list results) ~totals ()

(* A three-branch tree with distinct result lists so every node weighs 1-3. *)
let sample () =
  let n = 13 in
  let parent = [| -1; 0; 0; 0; 1; 1; 2; 2; 3; 4; 4; 6; 8 |] in
  let results =
    Array.init n (fun i -> List.init (1 + (i mod 3)) (fun j -> (i * 10) + j))
  in
  mk parent results (Array.make n 100)

let check_connected tree (res : Partition.result) =
  (* Every node's path to its partition root stays inside the partition. *)
  Array.iteri
    (fun v root ->
      let rec climb x =
        if x = root then true
        else if x = -1 then false
        else if res.Partition.assignment.(x) <> root then false
        else climb (Comp_tree.parent tree x)
      in
      Alcotest.(check bool) (Printf.sprintf "node %d connected" v) true (climb v))
    res.Partition.assignment

let test_assignment_total () =
  let tree = sample () in
  let res = Partition.run tree ~threshold:5. in
  Alcotest.(check int) "every node assigned" (Comp_tree.size tree)
    (Array.length res.Partition.assignment);
  Array.iteri
    (fun v root ->
      Alcotest.(check bool) (Printf.sprintf "%d has valid root" v) true
        (root >= 0 && root < Comp_tree.size tree);
      Alcotest.(check int) "root self-assigned" root res.Partition.assignment.(root))
    res.Partition.assignment

let test_roots_sorted_and_include_zero () =
  let tree = sample () in
  let res = Partition.run tree ~threshold:5. in
  (match res.Partition.roots with
  | 0 :: _ -> ()
  | _ -> Alcotest.fail "root partition must come first");
  Alcotest.(check (list int)) "ascending" (List.sort Int.compare res.Partition.roots)
    res.Partition.roots

let test_partitions_connected () =
  let tree = sample () in
  List.iter
    (fun threshold -> check_connected tree (Partition.run tree ~threshold))
    [ 2.; 4.; 8.; 100. ]

let test_weights_respected () =
  let tree = sample () in
  let threshold = 6. in
  let res = Partition.run tree ~threshold in
  (* Each partition that is not a single overweight node must weigh at most
     threshold + heaviest child (the algorithm sheds until <= threshold, so
     remaining cluster weight <= threshold unless indivisible). *)
  let weight_of_partition root =
    Array.to_list res.Partition.assignment
    |> List.mapi (fun v r -> if r = root then Partition.node_weight tree v else 0.)
    |> List.fold_left ( +. ) 0.
  in
  List.iter
    (fun root ->
      let w = weight_of_partition root in
      let own = Partition.node_weight tree root in
      Alcotest.(check bool)
        (Printf.sprintf "partition %d weight %.0f" root w)
        true
        (w <= threshold || w = own))
    res.Partition.roots

let test_huge_threshold_single_partition () =
  let tree = sample () in
  let res = Partition.run tree ~threshold:1e9 in
  Alcotest.(check (list int)) "one partition" [ 0 ] res.Partition.roots

let test_tiny_threshold_many_partitions () =
  let tree = sample () in
  let res = Partition.run tree ~threshold:0.5 in
  Alcotest.(check bool) "many partitions" true (List.length res.Partition.roots > 5);
  check_connected tree res

let test_run_k_bounds () =
  let tree = sample () in
  List.iter
    (fun k ->
      let res = Partition.run_k tree ~k in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d respected" k)
        true
        (List.length res.Partition.roots <= k);
      check_connected tree res)
    [ 1; 2; 3; 5; 10; 50 ]

let test_run_k_uses_budget () =
  (* With k larger than trivially needed, the partitioning should actually
     split (more than one partition) for this 13-node tree. *)
  let tree = sample () in
  let res = Partition.run_k tree ~k:10 in
  Alcotest.(check bool) "splits" true (List.length res.Partition.roots > 1)

let test_singleton_tree () =
  let tree = mk [| -1 |] [| [ 1 ] |] [| 5 |] in
  let res = Partition.run_k tree ~k:4 in
  Alcotest.(check (list int)) "single node" [ 0 ] res.Partition.roots

let test_rejects_bad_args () =
  let tree = sample () in
  Alcotest.(check bool) "threshold <= 0" true
    (try
       ignore (Partition.run tree ~threshold:0.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "k < 1" true
    (try
       ignore (Partition.run_k tree ~k:0);
       false
     with Invalid_argument _ -> true)

let test_weight_functions () =
  let tree = sample () in
  Alcotest.(check (float 1e-9)) "node weight = |L|" 1. (Partition.node_weight tree 0);
  let expected =
    List.fold_left
      (fun acc v -> acc +. Partition.node_weight tree v)
      0.
      (List.init (Comp_tree.size tree) Fun.id)
  in
  Alcotest.(check (float 1e-9)) "total" expected (Partition.total_weight tree)

(* Random trees: structural invariants hold for arbitrary shapes. *)
let gen_tree =
  QCheck.make
    ~print:(fun (parents, _) ->
      String.concat ";" (Array.to_list (Array.map string_of_int parents)))
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      let rec build i acc =
        if i >= n then return (Array.of_list (List.rev acc))
        else int_range 0 (i - 1) >>= fun p -> build (i + 1) (p :: acc)
      in
      build 1 [ -1 ] >>= fun parents ->
      int_range 1 1000 >|= fun seed -> (parents, seed))

let tree_of (parents, seed) =
  let rng = Rng.create seed in
  let n = Array.length parents in
  let results =
    Array.init n (fun i ->
        Docset.of_list (List.init (1 + Rng.int rng 5) (fun j -> (i * 10) + j)))
  in
  Comp_tree.make ~parent:parents ~results ~totals:(Array.make n 1000) ()

let qcheck_partitions_cover =
  QCheck.Test.make ~name:"partitions cover all nodes, connected" ~count:200 gen_tree
    (fun input ->
      let tree = tree_of input in
      let res = Partition.run_k tree ~k:5 in
      List.length res.Partition.roots <= 5
      && res.Partition.assignment.(0) = 0
      && Array.for_all
           (fun root -> List.mem root res.Partition.roots)
           res.Partition.assignment
      &&
      (* connectivity *)
      let ok = ref true in
      Array.iteri
        (fun v root ->
          let rec climb x =
            if x = root then true
            else if x = -1 then false
            else res.Partition.assignment.(x) = root && climb (Comp_tree.parent tree x)
          in
          if not (climb v) then ok := false)
        res.Partition.assignment;
      !ok)

(* Differential: the array-based pass against the list-based oracle,
   bit for bit, across k, growth and random thresholds. *)
module Oracle = Partition_oracle

let same (a : Partition.result) (b : Partition.result) =
  a.assignment = b.assignment && a.roots = b.roots && Float.equal a.threshold b.threshold

let qcheck_run_k_matches_oracle =
  QCheck.Test.make ~name:"run_k = oracle for k 2..12, four growths" ~count:300 Comp_tree_gen.gen
    (fun spec ->
      let tree = Comp_tree_gen.tree spec in
      List.for_all
        (fun growth ->
          List.for_all
            (fun k -> same (Partition.run_k ~growth tree ~k) (Oracle.run_k ~growth tree ~k))
            (List.init 11 (fun i -> i + 2)))
        [ 1.05; 1.3; 2.0; 7.5 ])

let qcheck_run_k_matches_rebuilding =
  QCheck.Test.make ~name:"run_k = children-rebuilding oracle, four growths" ~count:300
    Comp_tree_gen.gen (fun spec ->
      let tree = Comp_tree_gen.tree spec in
      List.for_all
        (fun growth ->
          List.for_all
            (fun k ->
              same (Partition.run_k ~growth tree ~k) (Oracle.Rebuilding.run_k ~growth tree ~k))
            (List.init 11 (fun i -> i + 2)))
        [ 1.05; 1.3; 2.0; 7.5 ])

let qcheck_run_matches_oracle =
  QCheck.Test.make ~name:"run = oracle at any threshold" ~count:300
    (QCheck.pair Comp_tree_gen.gen (QCheck.float_range 0.01 200.))
    (fun (spec, threshold) ->
      let tree = Comp_tree_gen.tree spec in
      same (Partition.run tree ~threshold) (Oracle.run tree ~threshold))

let () =
  Alcotest.run "partition"
    [
      ( "unit",
        [
          Alcotest.test_case "assignment total" `Quick test_assignment_total;
          Alcotest.test_case "roots sorted" `Quick test_roots_sorted_and_include_zero;
          Alcotest.test_case "connected" `Quick test_partitions_connected;
          Alcotest.test_case "weights respected" `Quick test_weights_respected;
          Alcotest.test_case "huge threshold" `Quick test_huge_threshold_single_partition;
          Alcotest.test_case "tiny threshold" `Quick test_tiny_threshold_many_partitions;
          Alcotest.test_case "run_k bounds" `Quick test_run_k_bounds;
          Alcotest.test_case "run_k splits" `Quick test_run_k_uses_budget;
          Alcotest.test_case "singleton" `Quick test_singleton_tree;
          Alcotest.test_case "rejects bad args" `Quick test_rejects_bad_args;
          Alcotest.test_case "weight functions" `Quick test_weight_functions;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest qcheck_partitions_cover ]);
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest qcheck_run_k_matches_oracle;
          QCheck_alcotest.to_alcotest qcheck_run_k_matches_rebuilding;
          QCheck_alcotest.to_alcotest qcheck_run_matches_oracle;
        ] );
    ]
