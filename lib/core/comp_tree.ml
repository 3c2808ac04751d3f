open Bionav_util

(* A tree either holds each node's result set, or (a reduced tree) only
   the signature table of its supernodes, from which every distinct
   count follows. *)
type content = Sets of Docset.t array | Counts of Signature.t

(* Optional per-node arrays are [||] when not given; the accessors then
   derive the default. The shared arrays (results, totals, labels,
   concepts) are read at [ix t i]. *)
type t = {
  parent : int array;
  kid_start : int array;  (* the children of i: kids.(kid_start.(i) .. kid_start.(i+1) - 1) *)
  kids : int array;  (* every node's children, ascending, node by node *)
  ids : int array;  (* node i's index into the shared arrays; [||]: i itself *)
  content : content;
  totals : int array;
  labels : string array;
  tags : int array;
  concepts : int array;
  multiplicity : int array;
  sub_weights : float array array;
  sub_concepts : int array array;
}

let ix t i = if Array.length t.ids = 0 then i else t.ids.(i)

(* [|L|] of the node at shared index [j] (sets) or node [i] (counts). *)
let count_of content ~i ~j =
  match content with Sets r -> Docset.cardinal r.(j) | Counts s -> Signature.count s i

let make ~parent ?(ids = [||]) ?results ?signature ~totals ?labels ?tags ?concepts
    ?multiplicity ?sub_weights ?sub_concepts () =
  let n = Array.length parent in
  if n = 0 then invalid_arg "Comp_tree.make: empty";
  let view = Array.length ids > 0 in
  if view && Array.length ids <> n then invalid_arg "Comp_tree.make: ids length mismatch";
  if Array.exists (fun j -> j < 0) ids then invalid_arg "Comp_tree.make: negative id";
  (* A shared array has one entry per node, or in a view one per id. *)
  let top = Array.fold_left max (-1) ids in
  let shared name a =
    if (view && Array.length a <= top) || ((not view) && Array.length a <> n) then
      invalid_arg (Printf.sprintf "Comp_tree.make: %s length mismatch" name);
    a
  in
  let content =
    match (results, signature) with
    | Some r, None -> Sets (shared "results" r)
    | None, Some s ->
        if view || Signature.parts s <> n then
          invalid_arg "Comp_tree.make: signature size mismatch";
        Counts s
    | _ -> invalid_arg "Comp_tree.make: exactly one of results and signature"
  in
  let totals = shared "totals" totals in
  if parent.(0) <> -1 then invalid_arg "Comp_tree.make: node 0 must be the root";
  for i = 1 to n - 1 do
    if not (parent.(i) >= 0 && parent.(i) < i) then
      invalid_arg (Printf.sprintf "Comp_tree.make: node %d has parent %d" i parent.(i))
  done;
  for i = 0 to n - 1 do
    let j = if view then ids.(i) else i in
    let li = count_of content ~i ~j in
    if totals.(j) < li then
      invalid_arg (Printf.sprintf "Comp_tree.make: node %d has LT %d < L %d" i totals.(j) li);
    if li > 0 && totals.(j) <= 0 then
      invalid_arg (Printf.sprintf "Comp_tree.make: node %d has results but LT 0" i)
  done;
  let given name = function
    | None -> [||]
    | Some a ->
        if Array.length a <> n then
          invalid_arg (Printf.sprintf "Comp_tree.make: %s length mismatch" name);
        a
  in
  let multiplicity = given "multiplicity" multiplicity in
  Array.iter (fun x -> if x < 1 then invalid_arg "Comp_tree.make: multiplicity < 1") multiplicity;
  let sub_weights = given "sub_weights" sub_weights in
  let sub_concepts = given "sub_concepts" sub_concepts in
  Array.iteri
    (fun i ci ->
      let width = if Array.length sub_weights = 0 then 1 else Array.length sub_weights.(i) in
      if Array.length ci <> width then
        invalid_arg
          (Printf.sprintf "Comp_tree.make: node %d has %d sub_concepts but %d sub_weights" i
             (Array.length ci) width))
    sub_concepts;
  (* Children in one flat array: count them per parent, take prefix
     sums, place each child at its parent's cursor (ascending, since
     [i] ascends), then shift the cursors back to start offsets. *)
  let kid_start = Array.make (n + 1) 0 and kids = Array.make (n - 1) 0 in
  for i = 1 to n - 1 do
    kid_start.(parent.(i) + 1) <- kid_start.(parent.(i) + 1) + 1
  done;
  for p = 1 to n do
    kid_start.(p) <- kid_start.(p) + kid_start.(p - 1)
  done;
  for i = 1 to n - 1 do
    let p = parent.(i) in
    kids.(kid_start.(p)) <- i;
    kid_start.(p) <- kid_start.(p) + 1
  done;
  for p = n downto 1 do
    kid_start.(p) <- kid_start.(p - 1)
  done;
  kid_start.(0) <- 0;
  let shared_opt name = function None -> [||] | Some a -> shared name a in
  {
    parent;
    kid_start;
    kids;
    ids;
    content;
    totals;
    labels = shared_opt "labels" labels;
    tags = given "tags" tags;
    concepts = shared_opt "concepts" concepts;
    multiplicity;
    sub_weights;
    sub_concepts;
  }

let size t = Array.length t.parent
let root _ = 0
let parent t i = t.parent.(i)
let children t i =
  let rec from j acc = if j < t.kid_start.(i) then acc else from (j - 1) (t.kids.(j) :: acc) in
  from (t.kid_start.(i + 1) - 1) []

let child_index t = (t.kid_start, t.kids)
let is_leaf t i = t.kid_start.(i) = t.kid_start.(i + 1)

let rec depth t i = if i = 0 then 0 else 1 + depth t t.parent.(i)

let results t i =
  match t.content with
  | Sets r -> r.(ix t i)
  | Counts _ -> invalid_arg "Comp_tree.results: a counts-only tree holds no result sets"

let result_count t i = count_of t.content ~i ~j:(ix t i)
let total t i = t.totals.(ix t i)
let label t i = if Array.length t.labels = 0 then Printf.sprintf "c%d" i else t.labels.(ix t i)
let tag t i = if Array.length t.tags = 0 then i else t.tags.(i)
let concept t i = if Array.length t.concepts = 0 then -1 else t.concepts.(ix t i)
let multiplicity t i = if Array.length t.multiplicity = 0 then 1 else t.multiplicity.(i)

let sub_weights t i =
  if Array.length t.sub_weights = 0 then [| float_of_int (result_count t i) |]
  else t.sub_weights.(i)

let iter_sub_weights t i f =
  if Array.length t.sub_weights = 0 then f (float_of_int (result_count t i))
  else Array.iter f t.sub_weights.(i)

let sub_concepts t i =
  if Array.length t.sub_concepts > 0 then t.sub_concepts.(i)
  else Array.make (Array.length (sub_weights t i)) (concept t i)

let signature t =
  match t.content with
  | Counts s -> s
  | Sets _ -> Signature.of_sets ~n:(size t) ~set:(results t) ~part:Fun.id ~parts:(size t)

type group = {
  members : int array array;
  member_weights : float array array;
  member_concepts : int array array;
  part_totals : int array;
  signature : Signature.t;
}

let group t ~part ~parts =
  let n = size t in
  if Array.length part <> n then invalid_arg "Comp_tree.group: part length mismatch";
  (* The signature pass first: it checks every part, and the reads below
     then find each node's set where the pass just left it. *)
  let signature = Signature.of_sets ~n ~set:(results t) ~part:(Array.get part) ~parts in
  let width = Array.make parts 0 in
  Array.iter (fun s -> width.(s) <- width.(s) + 1) part;
  let members = Array.map (fun c -> Array.make c 0) width in
  let member_weights = Array.map (fun c -> Array.make c 0.) width in
  let member_concepts = Array.map (fun c -> Array.make c 0) width in
  let part_totals = Array.make parts 0 in
  Array.fill width 0 parts 0;
  for v = 0 to n - 1 do
    let s = part.(v) in
    let k = width.(s) in
    members.(s).(k) <- v;
    member_weights.(s).(k) <- float_of_int (result_count t v);
    member_concepts.(s).(k) <- concept t v;
    part_totals.(s) <- part_totals.(s) + total t v;
    width.(s) <- k + 1
  done;
  { members; member_weights; member_concepts; part_totals; signature }

let subtree_nodes t n =
  let acc = ref [] in
  let rec go i =
    acc := i :: !acc;
    for j = t.kid_start.(i) to t.kid_start.(i + 1) - 1 do
      go t.kids.(j)
    done
  in
  go n;
  List.rev !acc

let distinct_of_nodes t nodes = Docset.union_many (List.map (results t) nodes)

let all_results t = distinct_of_nodes t (subtree_nodes t 0)

let duplicate_count t =
  let attached = ref 0 in
  for i = 0 to size t - 1 do
    attached := !attached + result_count t i
  done;
  !attached - Docset.cardinal (all_results t)

let singleton ~results ~total ?(label = "c0") ?(tag = 0) ?(concept = -1) () =
  make ~parent:[| -1 |] ~results:[| results |] ~totals:[| total |] ~labels:[| label |]
    ~tags:[| tag |] ~concepts:[| concept |] ()

let pp ppf t =
  let rec go d i =
    Format.fprintf ppf "%s%s (L=%d, LT=%d)@\n" (String.make (2 * d) ' ') (label t i)
      (result_count t i) (total t i);
    List.iter (go (d + 1)) (children t i)
  in
  go 0 0
