(* The list- and Hashtbl-based Opt-EdgeCut that the dense-table solver in
   lib/core/opt_edgecut.ml replaced, kept verbatim (minus the solve-time
   histogram) as the differential-test oracle: it enumerates every cut as
   an OCaml list and memoizes per mask in Hashtbls. *)

open Bionav_core

type solution = { cost : float; cut_children : int list }

let max_size = 16

(* All valid antichain options within the subtree of [v] restricted to
   [mask], as bitmasks of cut children. The empty antichain (0) is always
   included: it represents "no cut inside this subtree". Cutting at [v]
   itself excludes any deeper cut in the same subtree — exactly the
   validity condition of Definition 3 (no two cut edges on a root-leaf
   path). *)
let rec antichain_options ctx ~mask v =
  let tree = Cost_model.tree ctx in
  let kids =
    List.filter (fun c -> mask land (1 lsl c) <> 0) (Comp_tree.children tree v)
  in
  let per_child = List.map (antichain_options ctx ~mask) kids in
  let combos =
    List.fold_left
      (fun acc opts -> List.concat_map (fun a -> List.map (fun b -> a lor b) opts) acc)
      [ 0 ] per_child
  in
  (1 lsl v) :: combos

(* Valid non-empty cuts of the component [mask] rooted at [r]: combine one
   antichain option per child subtree of the root and drop the empty one. *)
let cuts_of ctx ~mask r =
  let tree = Cost_model.tree ctx in
  let kids = List.filter (fun c -> mask land (1 lsl c) <> 0) (Comp_tree.children tree r) in
  let per_child = List.map (antichain_options ctx ~mask) kids in
  let combos =
    List.fold_left
      (fun acc opts -> List.concat_map (fun a -> List.map (fun b -> a lor b) opts) acc)
      [ 0 ] per_child
  in
  List.filter (fun m -> m <> 0) combos

type state = {
  ctx : Cost_model.t;
  cost_memo : (int, float) Hashtbl.t;
  best_memo : (int, float * int) Hashtbl.t;  (* mask -> (cut term, cut mask) *)
}

let init ctx = { ctx; cost_memo = Hashtbl.create 512; best_memo = Hashtbl.create 512 }

let context st = st.ctx

let popcount = Bionav_util.Bits.popcount

(* cost(C): expected navigation cost of component [mask]. *)
let rec cost_mask st mask =
  match Hashtbl.find_opt st.cost_memo mask with
  | Some c -> c
  | None ->
      let ctx = st.ctx in
      let c =
        if popcount mask <= 1 then Cost_model.cost_unstructured ctx mask
        else begin
          let px = Cost_model.p_expand ctx mask in
          if px <= 0. then Cost_model.cost_leaf ctx mask
          else
            let cut_term, _ = best_cut st mask in
            Cost_model.cost ctx ~mask ~cut_term
        end
      in
      Hashtbl.add st.cost_memo mask c;
      c

(* Minimum over valid cuts of [cost(upper) + Σ_v (1 + cost(lower_v))]. *)
and best_cut st mask =
  match Hashtbl.find_opt st.best_memo mask with
  | Some r -> r
  | None ->
      let ctx = st.ctx in
      let r = Cost_model.root_of ctx mask in
      let cuts = cuts_of ctx ~mask r in
      assert (cuts <> []);
      let evaluate cut_mask =
        let lower_masks =
          List.map
            (fun v -> Cost_model.subtree_mask ctx ~mask v)
            (Cost_model.members ctx cut_mask)
        in
        let lowered = List.fold_left ( lor ) 0 lower_masks in
        let upper = mask land lnot lowered in
        let weighted m =
          Cost_model.branch_probability ctx ~parent_mask:mask ~branch_mask:m
          *. cost_mask st m
        in
        let lower_cost = List.fold_left (fun acc m -> acc +. 1. +. weighted m) 0. lower_masks in
        weighted upper +. lower_cost
      in
      let best =
        List.fold_left
          (fun (best_term, best_mask) cut ->
            let term = evaluate cut in
            if term < best_term then (term, cut) else (best_term, best_mask))
          (infinity, 0) cuts
      in
      Hashtbl.add st.best_memo mask best;
      best

let solve_mask st mask =
  if popcount mask < 2 then invalid_arg "Opt_edgecut.solve_mask: component too small to cut";
  let cut_term, cut_mask = best_cut st mask in
  { cost = cut_term; cut_children = Cost_model.members st.ctx cut_mask }

let check_size tree =
  if Comp_tree.size tree > max_size then
    invalid_arg
      (Printf.sprintf "Opt_edgecut: tree has %d nodes (max %d)" (Comp_tree.size tree) max_size)

let solve ?model ?norm tree =
  check_size tree;
  if Comp_tree.size tree < 2 then invalid_arg "Opt_edgecut.solve: tree must have >= 2 nodes";
  let ctx = Cost_model.create ?model ?norm tree in
  solve_mask (init ctx) (Cost_model.full_mask ctx)

let expected_cost ?model ?norm tree =
  check_size tree;
  let ctx = Cost_model.create ?model ?norm tree in
  cost_mask (init ctx) (Cost_model.full_mask ctx)

let count_valid_cuts tree =
  check_size tree;
  let ctx = Cost_model.create tree in
  let mask = Cost_model.full_mask ctx in
  List.length (cuts_of ctx ~mask (Comp_tree.root tree))
