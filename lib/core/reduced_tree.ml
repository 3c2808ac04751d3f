open Bionav_util

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
  (* One union per supernode; a supernode with one non-empty member
     shares that member's set. *)
  let results =
    Array.map
      (fun ms ->
        Docset.union_many (Array.fold_right (fun v acc -> Comp_tree.results orig v :: acc) ms []))
      members
  in
  let totals =
    Array.map (Array.fold_left (fun acc v -> acc + Comp_tree.total orig v) 0) members
  in
  (* A supernode's union can exceed a member-wise total sum only if totals
     undercount; clamp defensively so Comp_tree.make's invariant holds. *)
  let totals = Array.mapi (fun s t -> max t (Docset.cardinal results.(s))) totals in
  let labels = Array.map (Comp_tree.label orig) roots in
  let concepts = Array.map (Comp_tree.concept orig) roots in
  let multiplicity = Array.map Array.length members in
  let sub_weights =
    Array.map (Array.map (fun v -> float_of_int (Comp_tree.result_count orig v))) members
  in
  let sub_concepts = Array.map (Array.map (Comp_tree.concept orig)) members in
  let reduced =
    Comp_tree.make ~parent ~results ~totals ~labels ~tags:(Array.copy roots) ~concepts
      ~multiplicity ~sub_weights ~sub_concepts ()
  in
  { reduced; original = orig; roots; members }

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
