open Bionav_util

type t = {
  parent : int array;
  children : int list array;
  depth : int array;
  results : Docset.t array;
  totals : int array;
  labels : string array;
  tags : int array;
  concepts : int array;
  multiplicity : int array;
  sub_weights : float array array;
  sub_concepts : int array array;
}

let make ~parent ~results ~totals ?labels ?tags ?concepts ?multiplicity ?sub_weights
    ?sub_concepts () =
  let n = Array.length parent in
  if n = 0 then invalid_arg "Comp_tree.make: empty";
  if Array.length results <> n || Array.length totals <> n then
    invalid_arg "Comp_tree.make: array length mismatch";
  if parent.(0) <> -1 then invalid_arg "Comp_tree.make: node 0 must be the root";
  for i = 1 to n - 1 do
    if not (parent.(i) >= 0 && parent.(i) < i) then
      invalid_arg (Printf.sprintf "Comp_tree.make: node %d has parent %d" i parent.(i))
  done;
  for i = 0 to n - 1 do
    let li = Docset.cardinal results.(i) in
    if totals.(i) < li then
      invalid_arg (Printf.sprintf "Comp_tree.make: node %d has LT %d < L %d" i totals.(i) li);
    if li > 0 && totals.(i) <= 0 then
      invalid_arg (Printf.sprintf "Comp_tree.make: node %d has results but LT 0" i)
  done;
  let labels =
    match labels with
    | Some l ->
        if Array.length l <> n then invalid_arg "Comp_tree.make: labels length mismatch";
        l
    | None -> Array.init n (Printf.sprintf "c%d")
  in
  let tags =
    match tags with
    | Some t ->
        if Array.length t <> n then invalid_arg "Comp_tree.make: tags length mismatch";
        t
    | None -> Array.init n Fun.id
  in
  let concepts =
    match concepts with
    | Some c ->
        if Array.length c <> n then invalid_arg "Comp_tree.make: concepts length mismatch";
        c
    | None -> Array.make n (-1)
  in
  let multiplicity =
    match multiplicity with
    | Some m ->
        if Array.length m <> n then invalid_arg "Comp_tree.make: multiplicity length mismatch";
        Array.iter (fun x -> if x < 1 then invalid_arg "Comp_tree.make: multiplicity < 1") m;
        m
    | None -> Array.make n 1
  in
  let sub_weights =
    match sub_weights with
    | Some w ->
        if Array.length w <> n then invalid_arg "Comp_tree.make: sub_weights length mismatch";
        w
    | None -> Array.init n (fun i -> [| float_of_int (Docset.cardinal results.(i)) |])
  in
  let sub_concepts =
    match sub_concepts with
    | Some c ->
        if Array.length c <> n then invalid_arg "Comp_tree.make: sub_concepts length mismatch";
        Array.iteri
          (fun i ci ->
            if Array.length ci <> Array.length sub_weights.(i) then
              invalid_arg
                (Printf.sprintf
                   "Comp_tree.make: node %d has %d sub_concepts but %d sub_weights" i
                   (Array.length ci)
                   (Array.length sub_weights.(i))))
          c;
        c
    | None -> Array.init n (fun i -> Array.make (Array.length sub_weights.(i)) concepts.(i))
  in
  let children = Array.make n [] in
  for i = n - 1 downto 1 do
    children.(parent.(i)) <- i :: children.(parent.(i))
  done;
  let depth = Array.make n 0 in
  for i = 1 to n - 1 do
    depth.(i) <- depth.(parent.(i)) + 1
  done;
  {
    parent = Array.copy parent;
    children;
    depth;
    results = Array.copy results;
    totals = Array.copy totals;
    labels = Array.copy labels;
    tags = Array.copy tags;
    concepts = Array.copy concepts;
    multiplicity = Array.copy multiplicity;
    sub_weights = Array.copy sub_weights;
    sub_concepts = Array.copy sub_concepts;
  }

let size t = Array.length t.parent
let root _ = 0
let parent t i = t.parent.(i)
let children t i = t.children.(i)
let is_leaf t i = t.children.(i) = []
let depth t i = t.depth.(i)
let results t i = t.results.(i)
let result_count t i = Docset.cardinal t.results.(i)
let total t i = t.totals.(i)
let label t i = t.labels.(i)
let tag t i = t.tags.(i)
let concept t i = t.concepts.(i)
let multiplicity t i = t.multiplicity.(i)
let sub_weights t i = t.sub_weights.(i)
let sub_concepts t i = t.sub_concepts.(i)

let subtree_nodes t n =
  let acc = ref [] in
  let rec go i =
    acc := i :: !acc;
    List.iter go t.children.(i)
  in
  go n;
  List.rev !acc

let distinct_of_nodes t nodes = Docset.union_many (List.map (fun i -> t.results.(i)) nodes)

let all_results t = distinct_of_nodes t (subtree_nodes t 0)

let duplicate_count t =
  let attached = Array.fold_left (fun acc s -> acc + Docset.cardinal s) 0 t.results in
  attached - Docset.cardinal (all_results t)

let singleton ~results ~total ?(label = "c0") ?(tag = 0) ?(concept = -1) () =
  make ~parent:[| -1 |] ~results:[| results |] ~totals:[| total |] ~labels:[| label |]
    ~tags:[| tag |] ~concepts:[| concept |] ()

let pp ppf t =
  let rec go i =
    Format.fprintf ppf "%s%s (L=%d, LT=%d)@\n"
      (String.make (2 * t.depth.(i)) ' ')
      t.labels.(i)
      (result_count t i) t.totals.(i);
    List.iter go t.children.(i)
  in
  go 0
