open Bionav_util

(* What a component carries while its visible root stays visible. Every
   field is fixed when the component is formed (create or a cut) except
   [key], the member set and its fingerprint, built on first use by a
   plan-cache lookup. *)
type comp = {
  members : int array;  (* ascending navigation ids; members.(0) is the root *)
  results : Docset.t;
  weight : float;  (* explore mass: Σ |L| / |LT| over members *)
  mutable key : (Docset.t * int) option;
}

(* A visible node: its component and its visible children (ascending). Its
   visible parent is derived, see [visible_parent]. *)
type vnode = { comp : comp; vchildren : int list }

type undo = { root : int; previous : vnode; cut_children : int list }

type t = {
  nav : Nav_tree.t;
  nodes : (int, vnode) Hashtbl.t;  (* visible root -> its state *)
  mutable history : undo list;
}

(* The results of a connected member set. A member whose whole subtree is
   in the set contributes the tree's precomputed subtree set and the scan
   jumps past its descendants; any other member contributes its own
   results. A component with no visible descendant is therefore a single
   operand and needs no union at all. *)
let results_of nav members =
  let n = Array.length members in
  let rec go i acc =
    if i >= n then acc
    else
      let m = members.(i) in
      let last_id = Nav_tree.last_descendant nav m in
      let last = i + last_id - m in
      if last < n && members.(last) = last_id then
        go (last + 1) (Nav_tree.subtree_results nav m :: acc)
      else go (i + 1) (Nav_tree.results nav m :: acc)
  in
  match go 0 [] with [ s ] -> s | sets -> Docset.union_many sets

let weight_of nav members =
  Array.fold_left
    (fun acc m ->
      let l = Nav_tree.result_count nav m in
      if l = 0 then acc else acc +. (float_of_int l /. float_of_int (Nav_tree.total nav m)))
    0. members

let make_comp nav members =
  { members; results = results_of nav members; weight = weight_of nav members; key = None }

(* The whole tree's members and weight are the tree's, computed once. *)
let create nav =
  let members = Nav_tree.root_members nav and weight = Nav_tree.root_weight nav in
  let nodes = Hashtbl.create 64 in
  Hashtbl.replace nodes 0
    { comp = { members; results = results_of nav members; weight; key = None }; vchildren = [] };
  { nav; nodes; history = [] }

let nav t = t.nav

let is_visible t i = Hashtbl.mem t.nodes i

(* A component is its root's subtree less its visible descendants' ones,
   so a node's component root is its nearest visible ancestor-or-self;
   the navigation root is always visible. *)
let component_root_of t i =
  if i < 0 || i >= Nav_tree.size t.nav then
    invalid_arg (Printf.sprintf "Active_tree.component_root_of: no node %d" i);
  let rec up i = if is_visible t i then i else up (Nav_tree.parent t.nav i) in
  up i

let node t fn r =
  if not (is_visible t r) then
    invalid_arg (Printf.sprintf "Active_tree.%s: %d not visible" fn r);
  Hashtbl.find t.nodes r

let visible_children t r = (node t "visible_children" r).vchildren

(* Ascending ids are the preorder of the visible embedding when every
   node's visible children are ascending. *)
let visible t =
  let rec go acc v = List.fold_left go (v :: acc) (Hashtbl.find t.nodes v).vchildren in
  List.rev (go [] (Nav_tree.root t.nav))

let component_members t r = (node t "component" r).comp.members
let component t r = Array.to_list (component_members t r)
let component_size t r = Array.length (component_members t r)
let component_results t r = (node t "component_results" r).comp.results
let component_distinct t r = Docset.cardinal (component_results t r)
let component_weight t r = (node t "component_weight" r).comp.weight

let component_key t r =
  let c = (node t "component_key" r).comp in
  match c.key with
  | Some k -> k
  | None ->
      let s = Docset.of_sorted_array_unchecked c.members in
      let k = (s, Docset.fingerprint s) in
      c.key <- Some k;
      k

let is_expandable t r = is_visible t r && component_size t r > 1

let comp_tree t r = Nav_tree.comp_tree_of t.nav ~root:r ~members:(component_members t r)

(* Nearest visible strict ancestor: a node's parent lies in the component
   of that nearest visible ancestor (or is it). *)
let visible_parent t i =
  match Nav_tree.parent t.nav i with -1 -> -1 | p -> component_root_of t p

(* [cut_children] arrives sorted and deduplicated. Sorted by preorder id,
   the cut children form an antichain iff no one's subtree interval
   contains the next one. *)
let validate_cut t ~root ~cut_children =
  let n = Nav_tree.size t.nav in
  if not (is_visible t root) then
    invalid_arg (Printf.sprintf "Active_tree.apply_cut: %d not visible" root);
  if cut_children = [] then invalid_arg "Active_tree.apply_cut: empty cut";
  List.iter
    (fun c ->
      if c = root then invalid_arg "Active_tree.apply_cut: cannot cut at the component root";
      if c < 0 || c >= n || component_root_of t c <> root then
        invalid_arg (Printf.sprintf "Active_tree.apply_cut: %d not in component of %d" c root))
    cut_children;
  let rec check_antichain = function
    | c :: (c' :: _ as rest) ->
        if c' <= Nav_tree.last_descendant t.nav c then
          invalid_arg (Printf.sprintf "Active_tree.apply_cut: cut children %d and %d overlap" c c');
        check_antichain rest
    | [ _ ] | [] -> ()
  in
  check_antichain cut_children

let apply_cut t ~root ~cut_children =
  let cut_children = List.sort_uniq Int.compare cut_children in
  validate_cut t ~root ~cut_children;
  let previous = Hashtbl.find t.nodes root in
  let members = previous.comp.members in
  let n = Array.length members in
  (* A cut child's subtree is a preorder interval, so its lower component
     is one contiguous slice of the ascending member array; the upper
     component is the gaps between the slices. *)
  let gaps, lowers, i =
    List.fold_left
      (fun (gaps, lowers, i) c ->
        let start = ref i in
        while members.(!start) < c do
          incr start
        done;
        let last_id = Nav_tree.last_descendant t.nav c in
        let stop = ref !start in
        while !stop < n && members.(!stop) <= last_id do
          incr stop
        done;
        ( Array.sub members i (!start - i) :: gaps,
          (c, Array.sub members !start (!stop - !start)) :: lowers,
          !stop ))
      ([], [], 0) cut_children
  in
  let upper = Array.concat (List.rev (Array.sub members i (n - i) :: gaps)) in
  (* A visible child of [root] inside a cut child's subtree now hangs
     below that cut child. *)
  let under c v = Nav_tree.in_subtree t.nav ~root:c v in
  let stays, moves =
    List.partition (fun v -> not (List.exists (fun c -> under c v) cut_children)) previous.vchildren
  in
  List.iter
    (fun (c, lower) ->
      Hashtbl.replace t.nodes c
        { comp = make_comp t.nav lower; vchildren = List.filter (under c) moves })
    lowers;
  Hashtbl.replace t.nodes root
    {
      comp = make_comp t.nav upper;
      vchildren = List.merge Int.compare stays cut_children;
    };
  t.history <- { root; previous; cut_children } :: t.history;
  cut_children

let expand_static t root =
  if not (is_visible t root) then
    invalid_arg (Printf.sprintf "Active_tree.expand_static: %d not visible" root);
  let kids = List.filter (fun c -> component_root_of t c = root) (Nav_tree.children t.nav root) in
  match kids with [] -> [] | _ :: _ -> apply_cut t ~root ~cut_children:kids

let backtrack t =
  match t.history with
  | [] -> false
  | { root; previous; cut_children } :: rest ->
      List.iter (Hashtbl.remove t.nodes) cut_children;
      Hashtbl.replace t.nodes root previous;
      t.history <- rest;
      true

let render t =
  let buf = Buffer.create 1024 in
  let rec go depth v =
    Buffer.add_string buf
      (Printf.sprintf "%s%s (%d)%s\n" (String.make (2 * depth) ' ') (Nav_tree.label t.nav v)
         (component_distinct t v)
         (if is_expandable t v then " >>>" else ""));
    List.iter (go (depth + 1)) (Hashtbl.find t.nodes v).vchildren
  in
  go 0 (Nav_tree.root t.nav);
  Buffer.contents buf
