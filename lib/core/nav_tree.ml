open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy
module Database = Bionav_store.Database

type t = {
  concept_ids : int array;
  parent : int array;
  children : int list array;
  depth : int array;
  results : Docset.t array;
  totals : int array;
  labels : string array;
  subtree_distinct : int array;
  subtree_sets : Docset.t array;
  tout : int array;  (* preorder exit: last descendant id *)
  node_of_concept : (int, int) Hashtbl.t;
}

(* Parents of [count] nodes listed in preorder, node 0 the root: each
   node hangs under the innermost earlier node that [encloses] it, found
   on a stack of the open ancestors. *)
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

(* The rest of a tree from its preorder arrays: children, depths, subtree
   intervals and the concept index. [subtree_sets] gets the children. *)
let finish ~concept_ids ~parent ~results ~totals ~labels ~subtree_sets =
  let count = Array.length parent in
  let children = Array.make count [] and depth = Array.make count 0 in
  let tout = Array.init count Fun.id in
  for i = count - 1 downto 1 do
    children.(parent.(i)) <- i :: children.(parent.(i));
    tout.(parent.(i)) <- max tout.(parent.(i)) tout.(i)
  done;
  for i = 1 to count - 1 do
    depth.(i) <- depth.(parent.(i)) + 1
  done;
  let subtree_sets = subtree_sets children in
  let node_of_concept = Hashtbl.create count in
  Array.iteri (fun i c -> Hashtbl.replace node_of_concept c i) concept_ids;
  {
    concept_ids;
    parent;
    children;
    depth;
    results;
    totals;
    labels;
    subtree_distinct = Array.map Docset.cardinal subtree_sets;
    subtree_sets;
    tout;
    node_of_concept;
  }

let build ~hierarchy ~attachments ~total_count =
  let n_concepts = Hierarchy.size hierarchy in
  let rank c = Hierarchy.preorder_rank hierarchy c in
  let attached =
    List.filter
      (fun (c, set) ->
        if c < 0 || c >= n_concepts then
          invalid_arg (Printf.sprintf "Nav_tree.build: unknown concept %d" c);
        not (Docset.is_empty set))
      attachments
    |> Array.of_list
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare (rank a) (rank b)) attached;
  Array.iteri
    (fun i (c, _) ->
      if i > 0 && fst attached.(i - 1) = c then
        invalid_arg (Printf.sprintf "Nav_tree.build: duplicate attachment for concept %d" c))
    attached;
  (* Maximum embedding (Definition 2): in hierarchy preorder, each
     attached concept hangs under its nearest attached ancestor, the
     innermost one whose rank interval contains it. The root survives
     unconditionally. *)
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
  let totals =
    Array.init count (fun i ->
        let c = concept_ids.(i) in
        let tc = total_count c in
        let lc = Docset.cardinal results.(i) in
        if tc < lc then
          invalid_arg
            (Printf.sprintf "Nav_tree.build: concept %d has total %d < attached %d" c tc lc);
        (* The root may legitimately have no results and a zero total. *)
        max tc lc)
  in
  (* Bottom-up union for subtree-distinct counts, kept as sets: refinement
     narrows to a node's subtree results and component unions reuse whole
     subtrees. A union equal to one operand shares it. *)
  let subtree_sets children =
    let sets = Array.make count Docset.empty in
    for i = count - 1 downto 0 do
      sets.(i) <- Docset.union_many (results.(i) :: List.map (fun c -> sets.(c)) children.(i))
    done;
    sets
  in
  finish ~concept_ids ~parent ~results ~totals
    ~labels:(Array.map (Hierarchy.label hierarchy) concept_ids)
    ~subtree_sets

(* Every concept of S is already in [t] (S lies inside its results), and
   a node's nearest ancestor with results in S is on its [t] ancestor
   chain, so filtering [t] in preorder is the maximum embedding of S. *)
let restrict t s =
  let m = Docset.mask s in
  let kept = ref [] in
  for i = Array.length t.parent - 1 downto 1 do
    let r = Docset.inter_mask t.results.(i) m in
    if not (Docset.is_empty r) then kept := (i, r) :: !kept
  done;
  let nodes = Array.of_list ((0, Docset.inter_mask t.results.(0) m) :: !kept) in
  let olds = Array.map fst nodes in
  let from a = Array.map (fun i -> a.(i)) olds in
  finish ~concept_ids:(from t.concept_ids)
    ~parent:(nest (Array.length olds) ~encloses:(fun j i -> olds.(i) <= t.tout.(olds.(j))))
    ~results:(Array.map snd nodes) ~totals:(from t.totals) ~labels:(from t.labels)
    ~subtree_sets:(fun _ -> Array.map (fun i -> Docset.inter_mask t.subtree_sets.(i) m) olds)

let of_database db result =
  build ~hierarchy:(Database.hierarchy db)
    ~attachments:(Database.concepts_of_result_ds db result)
    ~total_count:(Database.total_count db)

let size t = Array.length t.parent
let root _ = 0
let parent t i = t.parent.(i)
let children t i = t.children.(i)
let depth t i = t.depth.(i)
let is_leaf t i = t.children.(i) = []
let concept_id t i = t.concept_ids.(i)
let label t i = t.labels.(i)
let results t i = t.results.(i)
let result_count t i = Docset.cardinal t.results.(i)
let total t i = t.totals.(i)
let subtree_distinct t i = t.subtree_distinct.(i)
let subtree_results t i = t.subtree_sets.(i)
let node_of_concept t c = Hashtbl.find_opt t.node_of_concept c
let distinct_results t = t.subtree_distinct.(0)
let total_attached t = Array.fold_left (fun acc s -> acc + Docset.cardinal s) 0 t.results

let height t = Array.fold_left max 0 t.depth

let max_width t =
  let counts = Array.make (height t + 1) 0 in
  Array.iter (fun d -> counts.(d) <- counts.(d) + 1) t.depth;
  Array.fold_left max 0 counts

let in_subtree t ~root i = i >= root && i <= t.tout.(root)
let last_descendant t i = t.tout.(i)

let comp_tree_of t ~root ~members:nodes =
  let k = Array.length nodes in
  if k = 0 || nodes.(0) <> root then
    invalid_arg "Nav_tree.comp_tree_of: members must contain the root as minimum";
  (* Ascending ids are a preorder of the component, so a member's tree
     parent, when it is a member, is on the stack of the previous
     member's open ancestors: pop down to it. *)
  let parent = Array.make k (-1) and stack = Array.make k 0 and top = ref 0 in
  for idx = 1 to k - 1 do
    if nodes.(idx) <= nodes.(idx - 1) then
      invalid_arg "Nav_tree.comp_tree_of: members not strictly ascending";
    let p = t.parent.(nodes.(idx)) in
    while !top > 0 && nodes.(stack.(!top)) <> p do
      decr top
    done;
    if nodes.(stack.(!top)) <> p then
      invalid_arg
        (Printf.sprintf "Nav_tree.comp_tree_of: member %d disconnected from root %d"
           nodes.(idx) root);
    parent.(idx) <- stack.(!top);
    incr top;
    stack.(!top) <- idx
  done;
  (* A view of this tree's own per-node arrays: nothing is copied. *)
  ( Comp_tree.make ~parent ~ids:nodes ~results:t.results ~totals:t.totals ~labels:t.labels
      ~tags:nodes ~concepts:t.concept_ids (),
    nodes )

let pp ppf t =
  let rec go i =
    Format.fprintf ppf "%s%s (%d)@\n" (String.make (2 * t.depth.(i)) ' ') t.labels.(i)
      t.subtree_distinct.(i);
    List.iter go t.children.(i)
  in
  go 0
