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

(* --- the rank-sorted build and the masked restriction ----------------- *)

(* The builders that the flat passes in lib/core/nav_tree.ml replaced,
   kept as oracles for values and for sharing. [sorted_build] filters
   the attachments, heapsorts them by preorder rank, nests them on a
   stack of open ancestors and unions each node's own results with its
   children's subtree sets through [Docset.union_many]. [masked_restrict]
   intersects every node's sets with S, keeping those inside it. *)

(* Parents of [count] nodes listed in preorder, node 0 the root: each
   node hangs under the innermost earlier node that [encloses] it. *)
let nest count ~encloses =
  let parent = Array.make count (-1) and stack = Array.make count 0 and top = ref 0 in
  for i = 1 to count - 1 do
    while !top > 0 && not (encloses stack.(!top) i) do
      decr top
    done;
    parent.(i) <- stack.(!top);
    incr top;
    stack.(!top) <- i
  done;
  parent

let children_of parent =
  let children = Array.make (Array.length parent) [] in
  for i = Array.length parent - 1 downto 1 do
    children.(parent.(i)) <- i :: children.(parent.(i))
  done;
  children

let of_arrays ~concept_ids ~parent ~results ~subtree_sets ~totals ~labels =
  let count = Array.length parent in
  let depth = Array.make count 0 and last = Array.init count Fun.id in
  for i = count - 1 downto 1 do
    last.(parent.(i)) <- max last.(parent.(i)) last.(i)
  done;
  for i = 1 to count - 1 do
    depth.(i) <- depth.(parent.(i)) + 1
  done;
  { concept_ids; parent; depth; results; subtree_sets; totals; labels; last }

let sorted_build ~hierarchy ~attachments ~total_count =
  let n_concepts = Hierarchy.size hierarchy in
  let rank c = Hierarchy.preorder_rank hierarchy c in
  let attached =
    List.filter
      (fun (c, set) ->
        if c < 0 || c >= n_concepts then invalid_arg "sorted_build: unknown concept";
        not (Docset.is_empty set))
      attachments
    |> Array.of_list
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare (rank a) (rank b)) attached;
  Array.iteri
    (fun i (c, _) ->
      if i > 0 && fst attached.(i - 1) = c then invalid_arg "sorted_build: duplicate")
    attached;
  let hroot = Hierarchy.root hierarchy in
  let nodes =
    if Array.length attached > 0 && fst attached.(0) = hroot then attached
    else Array.append [| (hroot, Docset.empty) |] attached
  in
  let count = Array.length nodes in
  let concept_ids = Array.map fst nodes and results = Array.map snd nodes in
  let parent =
    nest count ~encloses:(fun j i ->
        rank concept_ids.(i) <= Hierarchy.last_descendant_rank hierarchy concept_ids.(j))
  in
  let children = children_of parent in
  let subtree_sets = Array.make count Docset.empty in
  for i = count - 1 downto 0 do
    subtree_sets.(i) <-
      Docset.union_many (results.(i) :: List.map (fun c -> subtree_sets.(c)) children.(i))
  done;
  of_arrays ~concept_ids ~parent ~results ~subtree_sets
    ~totals:
      (Array.mapi (fun i c -> max (total_count c) (Docset.cardinal results.(i))) concept_ids)
    ~labels:(Array.map (Hierarchy.label hierarchy) concept_ids)

(* [inter a s], and [a] itself when [a] lies inside [s], as the
   library's [Docset.inter_mask] did before it went. *)
let inter_mask a s =
  let kept = Docset.inter_cardinal a s in
  if kept = Docset.cardinal a then a else if kept = 0 then Docset.empty else Docset.inter a s

let masked_restrict t m =
  let kept = ref [] in
  for i = Array.length t.parent - 1 downto 1 do
    let r = inter_mask t.results.(i) m in
    if not (Docset.is_empty r) then kept := (i, r) :: !kept
  done;
  let nodes = Array.of_list ((0, inter_mask t.results.(0) m) :: !kept) in
  let olds = Array.map fst nodes in
  let from a = Array.map (fun i -> a.(i)) olds in
  of_arrays ~concept_ids:(from t.concept_ids)
    ~parent:(nest (Array.length olds) ~encloses:(fun j i -> olds.(i) <= t.last.(olds.(j))))
    ~results:(Array.map snd nodes)
    ~subtree_sets:(Array.map (fun i -> inter_mask t.subtree_sets.(i) m) olds)
    ~totals:(from t.totals) ~labels:(from t.labels)

(* Which operand of its union each subtree set physically is: 0 for the
   node's own results, [k + 1] for its [k]th child's subtree set, -1 for
   none. Shared values are what resident-byte accounting counts once. *)
let sharing t =
  let children = children_of t.parent in
  Array.mapi
    (fun i sub ->
      if sub == t.results.(i) then 0
      else
        match List.find_index (fun c -> sub == t.subtree_sets.(c)) children.(i) with
        | Some k -> k + 1
        | None -> -1)
    t.subtree_sets

(* The sharing rule: a subtree set equal to one of its operands is the
   first such operand, own results before children in order. Returns
   the first node breaking it. *)
let unshared t =
  let children = children_of t.parent in
  List.find_opt
    (fun i ->
      let sub = t.subtree_sets.(i) in
      match
        List.find_opt (Docset.equal sub)
          (t.results.(i) :: List.map (fun c -> t.subtree_sets.(c)) children.(i))
      with
      | Some first -> first != sub
      | None -> false)
    (List.init (Array.length t.parent) Fun.id)
