type t = {
  tree : Comp_tree.t;
  model : Probability.model;
  norm : float;
  full : int;
  signature : Signature.t;  (* distinct counts of every mask *)
  expand_memo : float array;  (* P_x by mask, NaN until computed *)
}

let max_size = Signature.max_parts

let create ?(model = Probability.default_model) ?norm tree =
  let size = Comp_tree.size tree in
  if size > max_size then
    invalid_arg
      (Printf.sprintf "Cost_model.create: tree has %d nodes (max %d)" size max_size);
  let norm = match norm with Some n -> n | None -> model.Probability.normalizer tree in
  {
    tree;
    model;
    norm;
    full = (1 lsl size) - 1;
    signature = Comp_tree.signature tree;
    expand_memo = Array.make (1 lsl size) Float.nan;
  }

let tree t = t.tree
let model t = t.model
let params t = t.model.Probability.params
let norm t = t.norm

let full_mask t = t.full

let members t mask =
  let n = Comp_tree.size t.tree in
  let rec go i acc =
    if i < 0 then acc
    else if mask land (1 lsl i) <> 0 then go (i - 1) (i :: acc)
    else go (i - 1) acc
  in
  go (n - 1) []

let mask_of nodes =
  List.fold_left
    (fun m i ->
      if i < 0 || i >= max_size then
        invalid_arg
          (Printf.sprintf "Cost_model.mask_of: node index %d outside [0, %d)" i max_size);
      m lor (1 lsl i))
    0 nodes

let root_of _t mask =
  if mask = 0 then invalid_arg "Cost_model.root_of: empty mask";
  (* Node indexing puts parents before children, so the smallest index in a
     connected component is its root. *)
  Bionav_util.Bits.lowest_bit mask

let subtree_mask t ~mask v =
  let rec go v acc =
    let acc = acc lor (1 lsl v) in
    List.fold_left
      (fun acc c -> if mask land (1 lsl c) <> 0 then go c acc else acc)
      acc (Comp_tree.children t.tree v)
  in
  go v 0

let distinct t mask = Signature.distinct t.signature mask

let p_explore t mask = t.model.Probability.explore ~norm:t.norm t.tree (members t mask)

let p_expand t mask =
  let mask = mask land t.full in
  let p = t.expand_memo.(mask) in
  if Float.is_nan p then begin
    let p =
      t.model.Probability.expand t.tree ~members:(members t mask) ~distinct:(distinct t mask)
    in
    t.expand_memo.(mask) <- p;
    p
  end
  else p

let underlying t mask =
  List.fold_left (fun acc i -> acc + Comp_tree.multiplicity t.tree i) 0 (members t mask)

let cost_leaf t mask = float_of_int (distinct t mask)

let cost_unstructured t mask =
  let px = p_expand t mask in
  if px <= 0. then cost_leaf t mask
  else begin
    let p = params t in
    let future = Probability.future_drilldown_cost p (underlying t mask) in
    let show = (1. -. px) *. float_of_int (distinct t mask) in
    show +. (px *. (p.Probability.expand_cost +. future))
  end

let cost t ~mask ~cut_term =
  let px = p_expand t mask in
  let show = (1. -. px) *. float_of_int (distinct t mask) in
  let expand = px *. ((params t).Probability.expand_cost +. cut_term) in
  show +. expand

let branch_probability t ~parent_mask ~branch_mask =
  let pe_parent = p_explore t parent_mask in
  if pe_parent <= 0. then 0.
  else Float.min 1.0 (p_explore t branch_mask /. pe_parent)

let expand_cost t = (params t).Probability.expand_cost
