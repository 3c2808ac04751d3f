type t = {
  concepts : Concept.t array;
  parent : int array;
  children : int list array;
  depth : int array;
  subtree_size : int array;
  rank : int array;  (* preorder rank, children visited in ascending id order *)
  height : int;
  max_width : int;
}

let validate concepts parent =
  let n = Array.length concepts in
  if n = 0 then invalid_arg "Hierarchy.build: empty concept array";
  if Array.length parent <> n then invalid_arg "Hierarchy.build: parent length mismatch";
  if parent.(0) <> -1 then invalid_arg "Hierarchy.build: root parent must be -1";
  for i = 0 to n - 1 do
    if Concept.id concepts.(i) <> i then
      invalid_arg (Printf.sprintf "Hierarchy.build: concept %d has id %d" i (Concept.id concepts.(i)));
    if i > 0 && not (parent.(i) >= 0 && parent.(i) < i) then
      invalid_arg (Printf.sprintf "Hierarchy.build: node %d has parent %d" i parent.(i))
  done;
  for i = 1 to n - 1 do
    let tn = Concept.tree_number concepts.(i) in
    let ptn = Concept.tree_number concepts.(parent.(i)) in
    match Tree_number.parent tn with
    | Some expected when Tree_number.equal expected ptn -> ()
    | _ ->
        invalid_arg
          (Printf.sprintf "Hierarchy.build: node %d tree number %s inconsistent with parent %s"
             i
             (Tree_number.to_string tn)
             (Tree_number.to_string ptn))
  done

let build concepts ~parent =
  validate concepts parent;
  let n = Array.length concepts in
  let children = Array.make n [] in
  (* Reverse iteration keeps each child list in ascending id order. *)
  for i = n - 1 downto 1 do
    children.(parent.(i)) <- i :: children.(parent.(i))
  done;
  let depth = Array.make n 0 in
  for i = 1 to n - 1 do
    depth.(i) <- depth.(parent.(i)) + 1
  done;
  let height = Array.fold_left Int.max 0 depth in
  let width = Array.make (height + 1) 0 in
  Array.iter (fun d -> width.(d) <- width.(d) + 1) depth;
  let subtree_size = Array.make n 1 in
  for i = n - 1 downto 1 do
    subtree_size.(parent.(i)) <- subtree_size.(parent.(i)) + subtree_size.(i)
  done;
  (* Ids are parents-first but not preorder. A child's rank follows its
     parent's and the subtrees of its earlier siblings; parents precede
     children, so one ascending pass sees every parent ranked. *)
  let rank = Array.make n 0 in
  for i = 0 to n - 1 do
    ignore
      (List.fold_left
         (fun next c ->
           rank.(c) <- next;
           next + subtree_size.(c))
         (rank.(i) + 1) children.(i)
        : int)
  done;
  { concepts; parent = Array.copy parent; children; depth; subtree_size; rank; height;
    max_width = Array.fold_left Int.max 0 width }

let of_parents ?labels parent =
  let n = Array.length parent in
  let label_of = match labels with Some f -> f | None -> Printf.sprintf "node-%d" in
  let tree_numbers = Array.make n Tree_number.root in
  let child_counter = Array.make n 0 in
  for i = 1 to n - 1 do
    let p = parent.(i) in
    if not (p >= 0 && p < i) then
      invalid_arg (Printf.sprintf "Hierarchy.of_parents: node %d has parent %d" i p);
    tree_numbers.(i) <- Tree_number.child tree_numbers.(p) child_counter.(p);
    child_counter.(p) <- child_counter.(p) + 1
  done;
  let concepts =
    Array.init n (fun i ->
        Concept.make ~id:i ~label:(label_of i) ~tree_number:tree_numbers.(i))
  in
  build concepts ~parent

let size t = Array.length t.concepts
let root _ = 0
let concept t i = t.concepts.(i)
let label t i = Concept.label t.concepts.(i)
let parent t i = t.parent.(i)
let children t i = t.children.(i)
let depth t i = t.depth.(i)
let is_leaf t i = t.children.(i) = []
let subtree_size t i = t.subtree_size.(i)
let preorder_rank t i = t.rank.(i)
let last_descendant_rank t i = t.rank.(i) + t.subtree_size.(i) - 1

let height t = t.height
let max_width t = t.max_width

let ancestors t i =
  (* Nearest ancestor first, root last. *)
  let rec up acc j =
    let p = t.parent.(j) in
    if p = -1 then List.rev acc else up (p :: acc) p
  in
  up [] i

let path_from_root t i =
  let rec up acc j = if j = -1 then acc else up (j :: acc) t.parent.(j) in
  up [] i

let is_ancestor t a b = t.rank.(a) < t.rank.(b) && t.rank.(b) <= last_descendant_rank t a

let iter_subtree t n f =
  let rec go i =
    f i;
    List.iter go t.children.(i)
  in
  go n

let descendants t n =
  let acc = ref [] in
  iter_subtree t n (fun i -> if i <> n then acc := i :: !acc);
  List.rev !acc

let fold_postorder t n f =
  let rec go i = f i (List.map go t.children.(i)) in
  go n

let find_by_label t label =
  let n = size t in
  let rec scan i =
    if i >= n then None
    else if String.equal (Concept.label t.concepts.(i)) label then Some i
    else scan (i + 1)
  in
  scan 0

let find_by_tree_number t tn =
  let n = size t in
  let rec scan i =
    if i >= n then None
    else if Tree_number.equal (Concept.tree_number t.concepts.(i)) tn then Some i
    else scan (i + 1)
  in
  scan 0

let nodes_at_depth t d =
  let acc = ref [] in
  for i = size t - 1 downto 0 do
    if t.depth.(i) = d then acc := i :: !acc
  done;
  !acc
