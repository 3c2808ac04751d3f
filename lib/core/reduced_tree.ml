open Bionav_util

type t = {
  reduced : Comp_tree.t;
  original : Comp_tree.t;
  roots : int array;  (* supernode -> original partition root *)
  members : int array array;  (* supernode -> original nodes, ascending *)
}

let word_bits = 32

(* The union of [sets] (at least two, non-empty, sharing [arena])
   interned once into [arena]. [bitmap] holds 32 bits per word for ids
   from [base] up and is all-zero on entry: every element is OR-ed in,
   then the words the sets span are read back in ascending order and
   cleared as they are read, so [bitmap] is all-zero again on return. *)
let union_in bitmap base arena sets =
  let lo = List.fold_left (fun m s -> min m (Docset.choose s)) max_int sets in
  let hi = List.fold_left (fun m s -> max m (Docset.max_elt s)) min_int sets in
  List.iter
    (fun s ->
      Docset.iter
        (fun x ->
          let i = x - base in
          let w = i / word_bits in
          bitmap.(w) <- bitmap.(w) lor (1 lsl (i land (word_bits - 1))))
        s)
    sets;
  let w_lo = (lo - base) / word_bits and w_hi = (hi - base) / word_bits in
  let card = ref 0 in
  for w = w_lo to w_hi do
    card := !card + Bits.popcount bitmap.(w)
  done;
  let out = Array.make !card 0 and k = ref 0 in
  for w = w_lo to w_hi do
    let bits = ref bitmap.(w) in
    while !bits <> 0 do
      out.(!k) <- base + (w * word_bits) + Bits.lowest_bit !bits;
      incr k;
      bits := !bits land (!bits - 1)
    done;
    bitmap.(w) <- 0
  done;
  Docset.of_sorted_array_unchecked_in arena out

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
  (* Comp_tree.make keeps a component's sets in one arena; supernode
     unions are interned there, one set per supernode. They share one
     bitmap over the id span of the supernodes that need a union. *)
  let member_sets =
    Array.map
      (fun ms ->
        Array.fold_right
          (fun v acc ->
            let s = Comp_tree.results orig v in
            if Docset.is_empty s then acc else s :: acc)
          ms [])
      members
  in
  let base = ref max_int and top = ref min_int in
  Array.iter
    (function
      | [] | [ _ ] -> ()
      | sets ->
          List.iter
            (fun s ->
              base := min !base (Docset.choose s);
              top := max !top (Docset.max_elt s))
            sets)
    member_sets;
  let bitmap =
    if !top < !base then [||] else Array.make (((!top - !base) / word_bits) + 1) 0
  in
  let results =
    Array.map
      (function
        | [] -> Docset.empty
        | [ s ] -> s
        | s :: _ as sets -> union_in bitmap !base (Docset.arena s) sets)
      member_sets
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
