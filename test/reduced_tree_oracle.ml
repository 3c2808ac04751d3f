(* The set-based solver pipeline, kept as the differential-test oracle
   for the counts-only reduced tree and the lean component tree in
   lib/core:

   - [build], the reduced-tree builder that the array-indexed supernodes
     replaced: supernodes are found through a Hashtbl and each
     supernode's results are the Intset union of its members' sets;
   - [build_union], the builder that the one-pass signatures replaced:
     array-indexed supernodes whose results are one Docset.union_many
     over their members' sets;
   - [comp_tree_of], the component copy that the lean component tree
     replaced: every per-node array is built, defaults included, and
     copied;
   - [best_cut] and [pipeline], Heuristic-ReducedOpt over these
     builders and the partition oracles. *)

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
  let results =
    Array.map
      (fun ms ->
        Docset.of_intset
          (Intset.union_many (List.map (fun v -> Docset.to_intset (Comp_tree.results orig v)) ms)))
      members
  in
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

let build_union orig (partition : Partition.result) =
  let n = Comp_tree.size orig in
  if Array.length partition.assignment <> n then
    invalid_arg "Reduced_tree.build: partition does not match tree";
  let roots = Array.of_list partition.roots in
  let k = Array.length roots in
  if k = 0 || roots.(0) <> 0 then invalid_arg "Reduced_tree.build: malformed partition roots";
  let super_of_root = Array.make n (-1) in
  Array.iteri (fun s r -> super_of_root.(r) <- s) roots;
  let super = Array.init n (fun v -> super_of_root.(partition.assignment.(v))) in
  let members = Array.make k [||] and filled = Array.make k 0 in
  Array.iter (fun s -> filled.(s) <- filled.(s) + 1) super;
  Array.iteri (fun s c -> members.(s) <- Array.make c 0) filled;
  Array.fill filled 0 k 0;
  Array.iteri
    (fun v s ->
      members.(s).(filled.(s)) <- v;
      filled.(s) <- filled.(s) + 1)
    super;
  let parent =
    Array.mapi (fun s r -> if s = 0 then -1 else super.(Comp_tree.parent orig r)) roots
  in
  let results =
    Array.map
      (fun ms ->
        Docset.union_many (Array.fold_right (fun v acc -> Comp_tree.results orig v :: acc) ms []))
      members
  in
  let totals =
    Array.map (Array.fold_left (fun acc v -> acc + Comp_tree.total orig v) 0) members
  in
  let totals = Array.mapi (fun s t -> max t (Docset.cardinal results.(s))) totals in
  let reduced =
    Comp_tree.make ~parent ~results ~totals
      ~labels:(Array.map (Comp_tree.label orig) roots)
      ~tags:(Array.copy roots)
      ~concepts:(Array.map (Comp_tree.concept orig) roots)
      ~multiplicity:(Array.map Array.length members)
      ~sub_weights:
        (Array.map (Array.map (fun v -> float_of_int (Comp_tree.result_count orig v))) members)
      ~sub_concepts:(Array.map (Array.map (Comp_tree.concept orig)) members)
      ()
  in
  { reduced; original = orig; roots; members = Array.map Array.to_list members }

(* The component of [root] with every per-node array spelled out: the
   parent of a member is found by a Hashtbl over the member ids, and the
   defaults a lean tree derives on read (one sub-weight [|L|] and one
   sub-concept per node, multiplicity 1) are stored. *)
let comp_tree_of nav ~members =
  let index = Hashtbl.create (Array.length members) in
  Array.iteri (fun i m -> Hashtbl.replace index m i) members;
  let parent =
    Array.mapi
      (fun i m -> if i = 0 then -1 else Hashtbl.find index (Nav_tree.parent nav m))
      members
  in
  let per f = Array.map f members in
  Comp_tree.make ~parent
    ~results:(per (Nav_tree.results nav))
    ~totals:(per (Nav_tree.total nav))
    ~labels:(per (Nav_tree.label nav))
    ~tags:(Array.copy members)
    ~concepts:(per (Nav_tree.concept_id nav))
    ~multiplicity:(per (fun _ -> 1))
    ~sub_weights:(per (fun m -> [| float_of_int (Nav_tree.result_count nav m) |]))
    ~sub_concepts:(per (fun m -> [| Nav_tree.concept_id nav m |]))
    ()

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

(* The whole set-based pipeline on one component: the copying
   component tree, the children-rebuilding partition, the union-based
   reduced tree, and Opt-EdgeCut on it. Returns the component tree, the
   reduction (when the component exceeds [k] nodes) and the cut in
   navigation ids. *)
let pipeline ?(model = Probability.default_model) ?(k = Heuristic.default_k) nav ~members =
  let comp = comp_tree_of nav ~members in
  let solve t =
    let ctx = Cost_model.create ~model t in
    let s = Opt_edgecut.solve_mask (Opt_edgecut.init ctx) (Cost_model.full_mask ctx) in
    (s.Opt_edgecut.cut_children, s.Opt_edgecut.cost)
  in
  let red, cut, cost =
    if Comp_tree.size comp <= k then
      let cut, cost = solve comp in
      (None, cut, cost)
    else
      let red = build_union comp (Partition_oracle.Rebuilding.run_k comp ~k) in
      if Comp_tree.size red.reduced < 2 then
        (Some red, Comp_tree.children comp 0, Float.of_int (Comp_tree.size comp))
      else
        let cut, cost = solve red.reduced in
        (Some red, map_cut_children red cut, cost)
  in
  (comp, red, List.map (Comp_tree.tag comp) cut, cost)

(* --- comparisons shared by the differential tests ---------------------- *)

(* Every accessor of two trees agrees; result sets are compared only when
   both trees hold them, counts always. *)
let same_comp_tree a b =
  let holds_sets t = try ignore (Comp_tree.results t 0); true with Invalid_argument _ -> false in
  let sets = holds_sets a && holds_sets b in
  let n = Comp_tree.size a in
  n = Comp_tree.size b
  && List.for_all
       (fun i ->
         Comp_tree.parent a i = Comp_tree.parent b i
         && Comp_tree.children a i = Comp_tree.children b i
         && Comp_tree.depth a i = Comp_tree.depth b i
         && ((not sets) || Docset.equal (Comp_tree.results a i) (Comp_tree.results b i))
         && Comp_tree.result_count a i = Comp_tree.result_count b i
         && Comp_tree.total a i = Comp_tree.total b i
         && Comp_tree.label a i = Comp_tree.label b i
         && Comp_tree.tag a i = Comp_tree.tag b i
         && Comp_tree.concept a i = Comp_tree.concept b i
         && Comp_tree.multiplicity a i = Comp_tree.multiplicity b i
         && Array.for_all2 Float.equal (Comp_tree.sub_weights a i) (Comp_tree.sub_weights b i)
         && Comp_tree.sub_concepts a i = Comp_tree.sub_concepts b i)
       (List.init n Fun.id)

(* Two cost models of equally shaped trees agree bit for bit: on every
   mask, the distinct count (also against the m-way merge over
   [sets_tree], a tree holding sets) and each probability and cost; and
   on every component an oracle drill-down can reach from the full mask
   (the upper component and each lower one after each optimal cut),
   Opt-EdgeCut's cut and cost. *)
let same_solver ~sets_tree a b =
  let merged = Cost_model_oracle.merge_distinct sets_tree in
  let full = Cost_model.full_mask a in
  let masks_ok = ref (full = Cost_model.full_mask b) and mask = ref 1 in
  while !masks_ok && !mask <= full do
    let m = !mask in
    let feq f = Float.equal (f a m) (f b m) in
    masks_ok :=
      Cost_model.distinct a m = Cost_model.distinct b m
      && Cost_model.distinct a m = merged m
      && feq Cost_model.p_explore && feq Cost_model.p_expand && feq Cost_model.cost_leaf
      && feq Cost_model.cost_unstructured;
    incr mask
  done;
  let sa = Opt_edgecut.init a and sb = Opt_edgecut.init b in
  let rec drill = function
    | [] -> true
    | m :: rest when Bionav_util.Bits.popcount m < 2 -> drill rest
    | m :: rest ->
        let x = Opt_edgecut.solve_mask sa m and y = Opt_edgecut.solve_mask sb m in
        x.Opt_edgecut.cut_children = y.Opt_edgecut.cut_children
        && Float.equal x.Opt_edgecut.cost y.Opt_edgecut.cost
        &&
        let lowers = List.map (fun v -> Opt_edgecut.subtree_mask sa ~mask:m v) x.cut_children in
        let upper = List.fold_left (fun acc l -> acc land lnot l) m lowers in
        drill ((upper :: lowers) @ rest)
  in
  !masks_ok && drill [ full ]
