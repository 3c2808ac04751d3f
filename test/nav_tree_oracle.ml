(* The rose-tree maximum embedding that the rank-ordered stack in
   lib/core/nav_tree.ml replaced, kept as the differential-test oracle:
   every build walks the whole hierarchy depth-first, replacing an empty
   internal concept by its kept children and dropping an empty leaf, then
   numbers the surviving nodes in preorder. Trees are compared as plain
   arrays, one entry per node. *)

open Bionav_util
open Bionav_core
module Hierarchy = Bionav_mesh.Hierarchy
module DB = Bionav_store.Database

type tree = {
  concept_ids : int array;
  parent : int array;
  depth : int array;
  results : Docset.t array;
  subtree_sets : Docset.t array;
  totals : int array;
  labels : string array;
  last : int array;  (* last descendant id *)
}

type rose = Rose of int * rose list

let build ~hierarchy ~attachments ~total_count =
  let attached = Array.make (Hierarchy.size hierarchy) Docset.empty in
  List.iter (fun (c, set) -> attached.(c) <- set) attachments;
  let rec embed c =
    let kept = List.concat_map embed (Hierarchy.children hierarchy c) in
    if Docset.is_empty attached.(c) then kept else [ Rose (c, kept) ]
  in
  let hroot = Hierarchy.root hierarchy in
  let top = Rose (hroot, List.concat_map embed (Hierarchy.children hierarchy hroot)) in
  let rec size (Rose (_, kids)) = List.fold_left (fun a k -> a + size k) 1 kids in
  let count = size top in
  let concept_ids = Array.make count 0 and parent = Array.make count (-1) in
  let depth = Array.make count 0 and last = Array.make count 0 in
  let next = ref 0 in
  let rec assign p d (Rose (c, kids)) =
    let id = !next in
    incr next;
    concept_ids.(id) <- c;
    parent.(id) <- p;
    depth.(id) <- d;
    List.iter (assign id (d + 1)) kids;
    last.(id) <- !next - 1
  in
  assign (-1) 0 top;
  let results = Array.map (fun c -> attached.(c)) concept_ids in
  let subtree_sets =
    Array.init count (fun i ->
        Docset.union_many (List.init (last.(i) - i + 1) (fun d -> results.(i + d))))
  in
  {
    concept_ids;
    parent;
    depth;
    results;
    subtree_sets;
    totals = Array.mapi (fun i c -> max (total_count c) (Docset.cardinal results.(i))) concept_ids;
    labels = Array.map (Hierarchy.label hierarchy) concept_ids;
    last;
  }

let of_database db result =
  build ~hierarchy:(DB.hierarchy db)
    ~attachments:(DB.concepts_of_result_ds db result)
    ~total_count:(DB.total_count db)

(* A library tree read back through its accessors. *)
let of_nav t =
  let n = Nav_tree.size t in
  let per f = Array.init n f in
  {
    concept_ids = per (Nav_tree.concept_id t);
    parent = per (Nav_tree.parent t);
    depth = per (Nav_tree.depth t);
    results = per (Nav_tree.results t);
    subtree_sets = per (Nav_tree.subtree_results t);
    totals = per (Nav_tree.total t);
    labels = per (Nav_tree.label t);
    last = per (Nav_tree.last_descendant t);
  }

(* The first difference between two trees, if any. *)
let diff a b =
  let n = Array.length a.parent in
  if Array.length b.parent <> n then
    Some (Printf.sprintf "size %d <> %d" n (Array.length b.parent))
  else
    let field name eq get =
      List.find_map
        (fun i -> if eq (get a i) (get b i) then None else Some (Printf.sprintf "%s of node %d" name i))
        (List.init n Fun.id)
    in
    List.find_map Fun.id
      [
        field "concept" Int.equal (fun t i -> t.concept_ids.(i));
        field "parent" Int.equal (fun t i -> t.parent.(i));
        field "depth" Int.equal (fun t i -> t.depth.(i));
        field "results" Docset.equal (fun t i -> t.results.(i));
        field "subtree set" Docset.equal (fun t i -> t.subtree_sets.(i));
        field "total" Int.equal (fun t i -> t.totals.(i));
        field "label" String.equal (fun t i -> t.labels.(i));
        field "last descendant" Int.equal (fun t i -> t.last.(i));
      ]
