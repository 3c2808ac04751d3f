open Bionav_util
open Bionav_core

let mk parent results totals =
  Comp_tree.make ~parent ~results:(Array.map Docset.of_list results) ~totals ()

let sample () =
  (* 0 - {1 - {3, 4}, 2 - {5}} with overlapping results. *)
  mk [| -1; 0; 0; 1; 1; 2 |]
    [| [ 0 ]; [ 1; 2 ]; [ 2; 3 ]; [ 1; 4 ]; [ 5 ]; [ 3; 6 ] |]
    [| 10; 10; 10; 10; 10; 10 |]

let reduced_of k =
  let tree = sample () in
  let part = Partition.run_k tree ~k in
  (tree, part, Reduced_tree.build tree part)

let test_members_partition_nodes () =
  let tree, part, red = reduced_of 3 in
  let all =
    List.concat (List.init (Reduced_tree.size red) (Reduced_tree.members red))
  in
  Alcotest.(check (list int)) "members cover tree"
    (List.init (Comp_tree.size tree) Fun.id)
    (List.sort Int.compare all);
  Alcotest.(check int) "one supernode per partition root"
    (List.length part.Partition.roots) (Reduced_tree.size red)

(* A supernode carries no set, but its count is its members' union's. *)
let test_supernode_results_are_unions () =
  let tree, _, red = reduced_of 3 in
  let rt = Reduced_tree.tree red in
  for s = 0 to Reduced_tree.size red - 1 do
    let expected =
      Docset.union_many (List.map (Comp_tree.results tree) (Reduced_tree.members red s))
    in
    Alcotest.(check int) "union" (Docset.cardinal expected) (Comp_tree.result_count rt s)
  done;
  Alcotest.(check bool) "counts only" true
    (try
       ignore (Comp_tree.results rt 0);
       false
     with Invalid_argument _ -> true)

let test_supernode_multiplicity () =
  let _, _, red = reduced_of 3 in
  let rt = Reduced_tree.tree red in
  for s = 0 to Reduced_tree.size red - 1 do
    Alcotest.(check int) "multiplicity = member count"
      (List.length (Reduced_tree.members red s))
      (Comp_tree.multiplicity rt s);
    Alcotest.(check int) "sub_weights length"
      (List.length (Reduced_tree.members red s))
      (Array.length (Comp_tree.sub_weights rt s))
  done

let test_supernode_totals_sum () =
  let tree, _, red = reduced_of 3 in
  let rt = Reduced_tree.tree red in
  for s = 0 to Reduced_tree.size red - 1 do
    let sum =
      List.fold_left (fun acc v -> acc + Comp_tree.total tree v) 0 (Reduced_tree.members red s)
    in
    Alcotest.(check int) "summed LT" sum (Comp_tree.total rt s)
  done

let test_parent_structure_respected () =
  let tree, part, red = reduced_of 3 in
  let rt = Reduced_tree.tree red in
  for s = 1 to Reduced_tree.size red - 1 do
    let r = Reduced_tree.partition_root red s in
    let parent_partition = part.Partition.assignment.(Comp_tree.parent tree r) in
    Alcotest.(check int) "reduced parent"
      parent_partition
      (Reduced_tree.partition_root red (Comp_tree.parent rt s))
  done

let test_tags_are_partition_roots () =
  let _, _, red = reduced_of 3 in
  let rt = Reduced_tree.tree red in
  for s = 0 to Reduced_tree.size red - 1 do
    Alcotest.(check int) "tag" (Reduced_tree.partition_root red s) (Comp_tree.tag rt s)
  done

let test_map_cut_children () =
  let tree, _, red = reduced_of 3 in
  if Reduced_tree.size red >= 2 then begin
    let cut = [ 1 ] in
    let mapped = Reduced_tree.map_cut_children red cut in
    Alcotest.(check int) "maps to partition root" (Reduced_tree.partition_root red 1)
      (List.hd mapped);
    (* Mapped node is a non-root node of the original tree. *)
    List.iter
      (fun v -> Alcotest.(check bool) "non-root" true (v > 0 && v < Comp_tree.size tree))
      mapped
  end

let test_map_cut_rejects_root_and_bogus () =
  let _, _, red = reduced_of 3 in
  Alcotest.(check bool) "root rejected" true
    (try
       ignore (Reduced_tree.map_cut_children red [ 0 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Reduced_tree.map_cut_children red [ 99 ]);
       false
     with Invalid_argument _ -> true)

let test_single_partition_reduces_to_one () =
  let tree = sample () in
  let part = Partition.run tree ~threshold:1e9 in
  let red = Reduced_tree.build tree part in
  Alcotest.(check int) "one supernode" 1 (Reduced_tree.size red);
  let rt = Reduced_tree.tree red in
  Alcotest.(check int) "all concepts aggregated" (Comp_tree.size tree)
    (Comp_tree.multiplicity rt 0)

let test_build_rejects_mismatched_partition () =
  let tree = sample () in
  let other = mk [| -1; 0 |] [| [ 1 ]; [ 2 ] |] [| 3; 3 |] in
  let part = Partition.run other ~threshold:1. in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (Reduced_tree.build tree part);
       false
     with Invalid_argument _ -> true)

(* The mapped image of any valid reduced cut is a valid original cut. *)
let qcheck_mapped_cuts_valid =
  let gen =
    QCheck.make
      ~print:(fun (n, seed, k) -> Printf.sprintf "n=%d seed=%d k=%d" n seed k)
      QCheck.Gen.(
        triple (int_range 3 30) (int_range 0 1000) (int_range 2 6))
  in
  QCheck.Test.make ~name:"mapped reduced cuts are valid original antichains" ~count:200 gen
    (fun (n, seed, k) ->
      let rng = Rng.create seed in
      let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
      let results = Array.init n (fun i -> Docset.of_list [ i; i + 1 ]) in
      let tree = Comp_tree.make ~parent ~results ~totals:(Array.make n 100) () in
      let part = Partition.run_k tree ~k in
      let red = Reduced_tree.build tree part in
      let rt = Reduced_tree.tree red in
      if Comp_tree.size rt < 2 then true
      else begin
        (* Cut all reduced root children (always a valid reduced cut). *)
        let cut = Comp_tree.children rt 0 in
        let mapped = Reduced_tree.map_cut_children red cut in
        let rec ancestor a b =
          let p = Comp_tree.parent tree b in
          if p = -1 then false else p = a || ancestor a p
        in
        List.for_all (fun v -> v > 0) mapped
        && List.for_all
             (fun a -> List.for_all (fun b -> a = b || not (ancestor a b)) mapped)
             mapped
      end)

(* Differential: the counts-only builder against the set-based oracles
   (Hashtbl and Intset unions; array-indexed Docset unions), field by
   field and on every mask of the cost model, and Heuristic-ReducedOpt
   over both. *)
module Oracle = Reduced_tree_oracle

let same_reduction red (expected : Oracle.t) =
  let n = Reduced_tree.size red in
  n = Oracle.size expected
  && Oracle.same_comp_tree (Reduced_tree.tree red) (Oracle.tree expected)
  && List.for_all
       (fun s ->
         Reduced_tree.members red s = Oracle.members expected s
         && Reduced_tree.partition_root red s = Oracle.partition_root expected s)
       (List.init n Fun.id)

let qcheck_build_matches_oracle =
  QCheck.Test.make ~name:"build = oracle in every field" ~count:300
    (QCheck.pair Comp_tree_gen.gen (QCheck.int_range 1 12))
    (fun (spec, k) ->
      let tree = Comp_tree_gen.tree spec in
      let part = Partition.run_k tree ~k in
      let red = Reduced_tree.build tree part in
      let union = Oracle.build_union tree part in
      same_reduction red (Oracle.build tree part)
      && same_reduction red union
      && Reduced_tree.original red == tree
      && Oracle.same_solver ~sets_tree:(Oracle.tree union)
           (Cost_model.create (Reduced_tree.tree red))
           (Cost_model.create (Oracle.tree union)))

(* Random connected partitions of 1-16-node trees: each non-root node
   starts a partition with probability 1/3, 2/3 or 1 (drawn per tree),
   so reduced trees of every size up to 16 occur, with the overlapping,
   nested and empty sets of
   [Comp_tree_gen.small_tree]. The cost models over the counts-only and
   the union-based reductions agree on every mask's distinct count,
   probabilities and costs, and Opt-EdgeCut's cut and cost agree on
   every component of every drill-down. *)
let random_partition tree seed : Partition.result =
  let rng = Rng.create seed in
  let n = Comp_tree.size tree in
  let assignment = Array.make n 0 and thirds = 1 + Rng.int rng 3 in
  for v = 1 to n - 1 do
    assignment.(v) <-
      (if Rng.int rng 3 < thirds then v else assignment.(Comp_tree.parent tree v))
  done;
  let roots = List.filter (fun v -> assignment.(v) = v) (List.init n Fun.id) in
  { Partition.assignment; roots; threshold = 1. }

let qcheck_random_partitions_match_oracle =
  QCheck.Test.make ~name:"random partitions: every mask, cost and cut = union oracle"
    ~count:300
    (QCheck.pair Comp_tree_gen.small_gen (QCheck.int_range 0 10_000))
    (fun (spec, seed) ->
      let tree = Comp_tree_gen.small_tree spec in
      let part = random_partition tree seed in
      let red = Reduced_tree.build tree part and union = Oracle.build_union tree part in
      same_reduction red union
      && Oracle.same_solver ~sets_tree:(Oracle.tree union)
           (Cost_model.create (Reduced_tree.tree red))
           (Cost_model.create (Oracle.tree union)))

let qcheck_best_cut_matches_oracle =
  QCheck.Test.make ~name:"best_cut = oracle pipeline" ~count:200
    (QCheck.pair Comp_tree_gen.gen (QCheck.int_range 2 8))
    (fun (spec, k) ->
      let tree = Comp_tree_gen.tree spec in
      QCheck.assume (Comp_tree.size tree >= 2);
      let r = Heuristic.best_cut ~k tree in
      let cut, size, cost = Oracle.best_cut ~k tree in
      r.Heuristic.cut_children = cut
      && r.Heuristic.reduced_size = size
      && Float.equal r.Heuristic.reduced_cost cost)

let () =
  Alcotest.run "reduced_tree"
    [
      ( "unit",
        [
          Alcotest.test_case "members partition nodes" `Quick test_members_partition_nodes;
          Alcotest.test_case "results are unions" `Quick test_supernode_results_are_unions;
          Alcotest.test_case "multiplicity" `Quick test_supernode_multiplicity;
          Alcotest.test_case "totals sum" `Quick test_supernode_totals_sum;
          Alcotest.test_case "parent structure" `Quick test_parent_structure_respected;
          Alcotest.test_case "tags" `Quick test_tags_are_partition_roots;
          Alcotest.test_case "map cut" `Quick test_map_cut_children;
          Alcotest.test_case "map cut rejects" `Quick test_map_cut_rejects_root_and_bogus;
          Alcotest.test_case "single partition" `Quick test_single_partition_reduces_to_one;
          Alcotest.test_case "rejects mismatch" `Quick test_build_rejects_mismatched_partition;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest qcheck_mapped_cuts_valid ]);
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest qcheck_build_matches_oracle;
          QCheck_alcotest.to_alcotest qcheck_random_partitions_match_oracle;
          QCheck_alcotest.to_alcotest qcheck_best_cut_matches_oracle;
        ] );
    ]
