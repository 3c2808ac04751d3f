(* The reduced-tree builder that the one-pass bitmap unions in
   lib/core/reduced_tree.ml replaced, kept as the differential-test
   oracle: supernodes are found through a Hashtbl and each supernode's
   results are a Docset.union_many, which interns and memoizes one
   intermediate union per member. [best_cut] runs Heuristic-ReducedOpt
   over this builder and the partition oracle. *)

open Bionav_util
open Bionav_core

type t = {
  reduced : Comp_tree.t;
  original : Comp_tree.t;
  roots : int array;  (* supernode -> original partition root *)
  members : int list array;  (* supernode -> original nodes *)
}

let build orig (partition : Partition.result) =
  let n = Comp_tree.size orig in
  if Array.length partition.assignment <> n then
    invalid_arg "Reduced_tree.build: partition does not match tree";
  let roots = Array.of_list partition.roots in
  let k = Array.length roots in
  if k = 0 || roots.(0) <> 0 then invalid_arg "Reduced_tree.build: malformed partition roots";
  let super_of_root = Hashtbl.create k in
  Array.iteri (fun s r -> Hashtbl.add super_of_root r s) roots;
  let members = Array.make k [] in
  for v = n - 1 downto 0 do
    let s = Hashtbl.find super_of_root partition.assignment.(v) in
    members.(s) <- v :: members.(s)
  done;
  let parent =
    Array.mapi
      (fun s r ->
        if s = 0 then -1
        else
          let p = Comp_tree.parent orig r in
          Hashtbl.find super_of_root partition.assignment.(p))
      roots
  in
  let results = Array.map (fun ms -> Docset.union_many (List.map (Comp_tree.results orig) ms)) members in
  let totals =
    Array.map (fun ms -> List.fold_left (fun acc v -> acc + Comp_tree.total orig v) 0 ms) members
  in
  let totals = Array.mapi (fun s t -> max t (Docset.cardinal results.(s))) totals in
  let labels = Array.map (Comp_tree.label orig) roots in
  let concepts = Array.map (Comp_tree.concept orig) roots in
  let multiplicity = Array.map List.length members in
  let sub_weights =
    Array.map
      (fun ms ->
        Array.of_list (List.map (fun v -> float_of_int (Comp_tree.result_count orig v)) ms))
      members
  in
  let sub_concepts =
    Array.map (fun ms -> Array.of_list (List.map (Comp_tree.concept orig) ms)) members
  in
  let reduced =
    Comp_tree.make ~parent ~results ~totals ~labels ~tags:(Array.copy roots) ~concepts
      ~multiplicity ~sub_weights ~sub_concepts ()
  in
  { reduced; original = orig; roots; members }

let tree t = t.reduced
let size t = Array.length t.roots
let partition_root t s = t.roots.(s)
let members t s = t.members.(s)
let map_cut_children t cut = List.map (fun s -> t.roots.(s)) cut

(* Heuristic.best_cut's cut and cost, computed through the oracles:
   Opt-EdgeCut on the tree itself when it fits in [k] nodes, otherwise on
   the oracle reduction, with the all-root-children fallback when the
   reduction collapses to one supernode. *)
let best_cut ?(k = Heuristic.default_k) tree =
  let solve t =
    let ctx = Cost_model.create t in
    let s = Opt_edgecut.solve_mask (Opt_edgecut.init ctx) (Cost_model.full_mask ctx) in
    (s.Opt_edgecut.cut_children, s.Opt_edgecut.cost)
  in
  if Comp_tree.size tree <= k then
    let cut, cost = solve tree in
    (cut, Comp_tree.size tree, cost)
  else
    let red = build tree (Partition_oracle.run_k tree ~k) in
    let rt = red.reduced in
    if Comp_tree.size rt < 2 then
      (Comp_tree.children tree 0, 1, Float.of_int (Comp_tree.size tree))
    else
      let cut, cost = solve rt in
      (map_cut_children red cut, Comp_tree.size rt, cost)
