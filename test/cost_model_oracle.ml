(* The union-based distinct count that the signature table in
   lib/core/cost_model.ml replaced, kept as the differential-test oracle:
   |L(C)| is the cardinality of the union of the mask's node sets, folded
   through the arena's memoized unions. Bits beyond the tree are
   ignored. *)

open Bionav_core

let members tree mask =
  List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init (Comp_tree.size tree) Fun.id)

let distinct tree mask =
  Bionav_util.Docset.cardinal (Comp_tree.distinct_of_nodes tree (members tree mask))
