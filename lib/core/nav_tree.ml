open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy
module Database = Bionav_store.Database

type t = {
  arena : Docset_arena.t;  (* owns every set this tree hands out *)
  concept_ids : int array;
  parent : int array;
  children : int list array;
  depth : int array;
  results : Docset.t array;
  totals : int array;
  labels : string array;
  subtree_distinct : int array;
  subtree_sets : Docset.t array;
  tin : int array;  (* preorder entry = node id itself, kept for clarity *)
  tout : int array;  (* preorder exit: last descendant id *)
  node_of_concept : (int, int) Hashtbl.t;
}

(* Intermediate rose tree used while computing the maximum embedding. *)
type rose = Rose of int * rose list

(* Every set the tree retains is interned into [arena], fresh per tree:
   nodes sharing a citation list share one physical copy, and the
   bottom-up subtree unions below seed the arena's op memo for the cost
   model. Attachments already in [arena] are kept as they are. *)
let build_in arena ~hierarchy ~attachments ~total_count =
  let n_concepts = Hierarchy.size hierarchy in
  let attached = Array.make n_concepts (Docset.in_arena arena Docset.empty) in
  List.iter
    (fun (c, set) ->
      if c < 0 || c >= n_concepts then
        invalid_arg (Printf.sprintf "Nav_tree.build: unknown concept %d" c);
      if not (Docset.is_empty attached.(c)) then
        invalid_arg (Printf.sprintf "Nav_tree.build: duplicate attachment for concept %d" c);
      attached.(c) <- Docset.in_arena arena set)
    attachments;
  (* Maximum embedding (Definition 2), one depth-first pass: an empty
     internal node is replaced by its kept children, an empty leaf vanishes,
     the root survives unconditionally. *)
  let rec embed c =
    let kept = List.concat_map embed (Hierarchy.children hierarchy c) in
    if Docset.is_empty attached.(c) then kept else [ Rose (c, kept) ]
  in
  let hroot = Hierarchy.root hierarchy in
  let top = Rose (hroot, List.concat_map embed (Hierarchy.children hierarchy hroot)) in
  (* Flatten in preorder: ids are assigned parents-first. *)
  let count =
    let rec sz (Rose (_, kids)) = 1 + List.fold_left (fun a k -> a + sz k) 0 kids in
    sz top
  in
  let concept_ids = Array.make count 0 in
  let parent = Array.make count (-1) in
  let next = ref 0 in
  let rec assign p (Rose (c, kids)) =
    let id = !next in
    incr next;
    concept_ids.(id) <- c;
    parent.(id) <- p;
    List.iter (assign id) kids
  in
  assign (-1) top;
  let children = Array.make count [] in
  for i = count - 1 downto 1 do
    children.(parent.(i)) <- i :: children.(parent.(i))
  done;
  let depth = Array.make count 0 in
  for i = 1 to count - 1 do
    depth.(i) <- depth.(parent.(i)) + 1
  done;
  let results = Array.init count (fun i -> attached.(concept_ids.(i))) in
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
  let labels = Array.init count (fun i -> Hierarchy.label hierarchy concept_ids.(i)) in
  (* Bottom-up union for subtree-distinct counts. The intermediate unions
     are interned, not dropped: later distinct-of-subtree queries from the
     cost model hit the arena memo instead of recomputing. *)
  let subtree_sets = Array.make count (Docset.in_arena arena Docset.empty) in
  for i = count - 1 downto 0 do
    let union =
      Docset.union_many (results.(i) :: List.map (fun c -> subtree_sets.(c)) children.(i))
    in
    subtree_sets.(i) <- union
  done;
  let subtree_distinct = Array.map Docset.cardinal subtree_sets in
  let tin = Array.init count Fun.id in
  let tout = Array.make count 0 in
  for i = count - 1 downto 0 do
    tout.(i) <- List.fold_left (fun acc c -> max acc tout.(c)) i children.(i)
  done;
  let node_of_concept = Hashtbl.create count in
  Array.iteri (fun i c -> Hashtbl.replace node_of_concept c i) concept_ids;
  {
    arena;
    concept_ids;
    parent;
    children;
    depth;
    results;
    totals;
    labels;
    subtree_distinct;
    subtree_sets;
    tin;
    tout;
    node_of_concept;
  }

let build ~hierarchy ~attachments ~total_count =
  build_in (Docset_arena.create ()) ~hierarchy ~attachments ~total_count

let of_database db result =
  let arena = Docset_arena.create () in
  let attachments = Database.concepts_of_result_ds db ~arena result in
  build_in arena ~hierarchy:(Database.hierarchy db) ~attachments
    ~total_count:(Database.total_count db)

let arena t = t.arena
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

let in_subtree t ~root i = t.tin.(i) >= t.tin.(root) && t.tin.(i) <= t.tout.(root)
let last_descendant t i = t.tout.(i)

let comp_tree_of t ~root ~members:nodes =
  let k = Array.length nodes in
  if k = 0 || nodes.(0) <> root then
    invalid_arg "Nav_tree.comp_tree_of: members must contain the root as minimum";
  (* Ascending ids are a preorder of the component, so a member's parent
     is the innermost still-open member on the stack of its ancestors. *)
  let parent = Array.make k (-1) in
  let stack = Array.make k 0 and top = ref 0 in
  for idx = 1 to k - 1 do
    let nav = nodes.(idx) in
    if nav <= nodes.(idx - 1) then
      invalid_arg "Nav_tree.comp_tree_of: members not strictly ascending";
    while !top >= 0 && t.tout.(nodes.(stack.(!top))) < nav do
      decr top
    done;
    if !top < 0 || nodes.(stack.(!top)) <> t.parent.(nav) then
      invalid_arg
        (Printf.sprintf "Nav_tree.comp_tree_of: member %d disconnected from root %d" nav root);
    parent.(idx) <- stack.(!top);
    incr top;
    stack.(!top) <- idx
  done;
  let results = Array.map (fun nav -> t.results.(nav)) nodes in
  let totals = Array.map (fun nav -> t.totals.(nav)) nodes in
  let labels = Array.map (fun nav -> t.labels.(nav)) nodes in
  let concepts = Array.map (fun nav -> t.concept_ids.(nav)) nodes in
  let tags = Array.copy nodes in
  (Comp_tree.make ~parent ~results ~totals ~labels ~tags ~concepts (), tags)

let pp ppf t =
  let rec go i =
    Format.fprintf ppf "%s%s (%d)@\n" (String.make (2 * t.depth.(i)) ' ') t.labels.(i)
      t.subtree_distinct.(i);
    List.iter go t.children.(i)
  in
  go 0
