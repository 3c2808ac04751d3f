type t = {
  reduced : Comp_tree.t;
  original : Comp_tree.t;
  roots : int array;  (* supernode -> original partition root *)
  members : int array array;  (* supernode -> original nodes, ascending *)
}

let build orig (partition : Partition.result) =
  let n = Comp_tree.size orig in
  if Array.length partition.assignment <> n then
    invalid_arg "Reduced_tree.build: partition does not match tree";
  (* Partition roots in ascending original order: the partition containing
     the original root comes first, and (because original ids are a
     topological order and a partition root's parent lies in an
     ancestor-side partition) parents precede children among supernodes. *)
  let roots = Array.of_list partition.roots in
  let k = Array.length roots in
  if k = 0 || roots.(0) <> 0 then invalid_arg "Reduced_tree.build: malformed partition roots";
  if k > Signature.max_parts then
    invalid_arg
      (Printf.sprintf "Reduced_tree.build: %d partitions (max %d)" k Signature.max_parts);
  let super_of_root = Array.make n (-1) in
  Array.iteri
    (fun s r ->
      if r < 0 || r >= n then invalid_arg "Reduced_tree.build: malformed partition roots";
      super_of_root.(r) <- s)
    roots;
  let super_of v =
    let r = partition.assignment.(v) in
    if r < 0 || r >= n || super_of_root.(r) < 0 then
      invalid_arg (Printf.sprintf "Reduced_tree.build: node %d assigned to non-root %d" v r);
    super_of_root.(r)
  in
  let super = Array.init n super_of in
  let parent =
    Array.mapi (fun s r -> if s = 0 then -1 else super.(Comp_tree.parent orig r)) roots
  in
  (* One pass over the members' sets gives every citation its mask of
     supernodes, hence each supernode's |L(s)| and every distinct count
     the cost model reads; no supernode set is built. *)
  let g = Comp_tree.group orig ~part:super ~parts:k in
  let signature = g.Comp_tree.signature in
  (* A supernode's distinct count can exceed a member-wise total sum only
     if totals undercount; clamp defensively so Comp_tree.make's
     invariant holds. *)
  let totals = Array.mapi (fun s t -> max t (Signature.count signature s)) g.part_totals in
  let reduced =
    Comp_tree.make ~parent ~signature ~totals
      ~labels:(Array.map (Comp_tree.label orig) roots)
      ~tags:roots
      ~concepts:(Array.map (Comp_tree.concept orig) roots)
      ~multiplicity:(Array.map Array.length g.members)
      ~sub_weights:g.member_weights ~sub_concepts:g.member_concepts ()
  in
  { reduced; original = orig; roots; members = g.members }

let tree t = t.reduced
let original t = t.original
let size t = Array.length t.roots
let partition_root t s = t.roots.(s)

let members t s = Array.to_list t.members.(s)

let map_cut_children t cut =
  List.map
    (fun s ->
      if s <= 0 || s >= size t then
        invalid_arg (Printf.sprintf "Reduced_tree.map_cut_children: supernode %d" s);
      t.roots.(s))
    cut
