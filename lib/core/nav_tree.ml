open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy
module Database = Bionav_store.Database

type t = {
  concept_ids : int array;
  parent : int array;
  depth : int array;
  results : Docset.t array;
  totals : int array;
  labels : string array;
  subtree_sets : Docset.t array;
  tout : int array;  (* preorder exit: last descendant id *)
  height : int;
  node_of_concept : (int, int) Hashtbl.t Lazy.t;
  root_members : int array;  (* 0 .. size-1 *)
  root_weight : float;
  mutable root_reduction : (int * Comp_tree.t * Reduced_tree.t option) option;
}

(* Per-domain scratch, clear between passes and only growing: the
   attachment at each hierarchy rank (-1 and empty for none), and 1 +
   the local id of each citation id (0 for none). *)
type scratch = {
  mutable concept : int array;
  mutable set : Docset.t array;
  mutable local : int array;
}

let scratch = Domain.DLS.new_key (fun () -> { concept = [||]; set = [||]; local = [||] })

(* Local ids [0, |ids|) of the ascending distinct citations [ids]; [top]
   is the largest id the table holds, -1 without one. *)
type locals = { ids : int array; table : int array; top : int; spread : (int, int) Hashtbl.t }

let[@inline] local { table; top; spread; _ } x =
  if x >= 0 && x <= top then Array.unsafe_get table x - 1
  else if Array.length table > 0 then -1
  else Option.value (Hashtbl.find_opt spread x) ~default:(-1)

(* The [local] table for [n] ids in [\[lo, top\]]: below 2^20 always
   (8 MiB), beyond only 16 per id. Other ids go to a hash table. *)
let local_table ~n ~lo ~top =
  let cap = max (1 lsl 20) (16 * n) in
  if n = 0 || lo < 0 || top >= cap then [||]
  else begin
    let st = Domain.DLS.get scratch in
    if Array.length st.local <= top then
      st.local <- Array.make (min cap (max (top + 1) (2 * Array.length st.local))) 0;
    st.local
  end

let install ?(table = [||]) ids =
  let d = Array.length ids in
  let table =
    if Array.length table > 0 || d = 0 then table
    else local_table ~n:d ~lo:ids.(0) ~top:ids.(d - 1)
  in
  let hashed = Array.length table = 0 in
  let spread = Hashtbl.create (if hashed then d else 1) in
  Array.iteri (fun l x -> if hashed then Hashtbl.replace spread x l else table.(x) <- l + 1) ids;
  { ids; table; top = (if hashed then -1 else ids.(d - 1)); spread }

(* The distinct citations of [sets], marked in the table if it fits. *)
let install_union sets =
  let live = List.filter (fun s -> not (Docset.is_empty s)) (Array.to_list sets) in
  let n = List.fold_left (fun n s -> n + Docset.cardinal s) 0 live in
  let lo = List.fold_left (fun lo s -> Int.min lo (Docset.choose s)) max_int live in
  let top = List.fold_left (fun hi s -> Int.max hi (Docset.max_elt s)) min_int live in
  match local_table ~n ~lo ~top with
  | [||] -> install (Docset.to_array (Docset.union_many live))
  | table ->
      let seen = ref [] in
      let mark x = if table.(x) = 0 then (table.(x) <- 1; seen := x :: !seen) in
      List.iter (Docset.iter mark) live;
      let ids = Array.of_list !seen in
      Array.sort Int.compare ids;
      install ~table ids

let release { ids; table; _ } =
  if Array.length table > 0 then Array.iter (fun x -> table.(x) <- 0) ids

(* One preorder pass over [count] nodes less than [height] deep: each
   hangs under the innermost open node whose [limit] covers its [key],
   and gets its depth, subtree interval and subtree set. An open node
   holds a bitmap of its closed children's local ids and its largest
   operand so far (own results first, then each closed child's subtree
   set, replaced only by a strictly larger one). On closing, its set is
   the first of [whole], that operand or a fresh set from the bitmap
   whose size is the union's; a childless node needs no bitmap. *)
let nest locals ~count ~height ~key ~limit ~own ~whole =
  let width = (Array.length locals.ids / 63) + 1 in
  let parent = Array.make count (-1) and depth = Array.make count 0 in
  let tout = Array.make count 0 and subs = Array.make count Docset.empty in
  let stack = Array.make height 0 and kids = Array.make height 0 in
  let big = Array.make height Docset.empty and bits = Array.make (height * width) 0 in
  let top = ref (-1) and deepest = ref 0 in
  let set_bit e x =
    let l = local locals x in
    bits.((e * width) + (l / 63)) <- bits.((e * width) + (l / 63)) lor (1 lsl (l mod 63))
  in
  let add e = Docset.iter (set_bit e) in
  let union e v =
    let base = e * width and n = ref 0 in
    add e (own v);
    for w = base to base + width - 1 do
      n := !n + Bits.popcount bits.(w);
      if e > 0 then bits.(w - width) <- bits.(w - width) lor bits.(w)
    done;
    let set =
      if Docset.cardinal (whole v) = !n then whole v
      else if Docset.cardinal big.(e) = !n then big.(e)
      else begin
        let out = Array.make !n 0 and i = ref 0 in
        for w = 0 to width - 1 do
          let b = ref bits.(base + w) in
          while !b <> 0 do
            out.(!i) <- locals.ids.((w * 63) + Bits.lowest_bit !b);
            incr i;
            b := !b land (!b - 1)
          done
        done;
        Docset.of_sorted_array_unchecked out
      end
    in
    Array.fill bits base width 0;
    set
  in
  (* Closes the innermost open node, whose subtree ends at [last]. *)
  let close last =
    let e = !top in
    let v = stack.(e) in
    if kids.(e) > 0 then subs.(v) <- union e v
    else begin
      if e > 0 then add (e - 1) (own v);
      subs.(v) <- (if Docset.cardinal (whole v) = Docset.cardinal (own v) then whole v else own v)
    end;
    tout.(v) <- last;
    if e > 0 then begin
      kids.(e - 1) <- kids.(e - 1) + 1;
      if Docset.cardinal subs.(v) > Docset.cardinal big.(e - 1) then big.(e - 1) <- subs.(v)
    end;
    decr top
  in
  for i = 0 to count - 1 do
    while !top >= 0 && key i > limit stack.(!top) do
      close (i - 1)
    done;
    incr top;
    if !top > 0 then parent.(i) <- stack.(!top - 1);
    depth.(i) <- !top;
    deepest := Int.max !deepest !top;
    stack.(!top) <- i;
    kids.(!top) <- 0;
    big.(!top) <- own i
  done;
  while !top >= 0 do
    close (count - 1)
  done;
  (parent, depth, tout, subs, !deepest)

(* A tree from its preorder arrays and [nest]'s output. *)
let make ~concept_ids ~results ~totals ~labels (parent, depth, tout, subtree_sets, height)
    =
  let pairs = Seq.map (fun (i, c) -> (c, i)) (Array.to_seqi concept_ids) in
  let node_of_concept = lazy (Hashtbl.of_seq pairs) in
  let root_members = Array.init (Array.length parent) Fun.id in
  let weight acc m =
    let l = Docset.cardinal results.(m) in
    if l = 0 then acc else acc +. (float_of_int l /. float_of_int totals.(m))
  in
  let root_weight = Array.fold_left weight 0. root_members in
  { concept_ids; parent; depth; results; totals; labels; subtree_sets; tout; height;
    node_of_concept; root_members; root_weight; root_reduction = None }

let build ~hierarchy ~attachments ~total_count =
  let n_concepts = Hierarchy.size hierarchy in
  let rank c = Hierarchy.preorder_rank hierarchy c in
  List.iter
    (fun (c, _) ->
      if c < 0 || c >= n_concepts then
        invalid_arg (Printf.sprintf "Nav_tree.build: unknown concept %d" c))
    attachments;
  (* Maximum embedding (Definition 2): placed by preorder rank, each
     attached concept hangs under its nearest attached ancestor, the
     innermost one whose rank interval contains it. The root survives
     unconditionally. *)
  let st = Domain.DLS.get scratch in
  if Array.length st.concept < n_concepts then begin
    st.concept <- Array.make n_concepts (-1);
    st.set <- Array.make n_concepts Docset.empty
  end;
  let at = st.concept and set_at = st.set in
  let place r c set =
    at.(r) <- c;
    set_at.(r) <- set
  in
  let deepest = ref 0 in
  let placed =
    List.fold_left
      (fun placed (c, set) ->
        if Docset.is_empty set then placed
        else if at.(rank c) < 0 then begin
          place (rank c) c set;
          deepest := Int.max !deepest (Hierarchy.depth hierarchy c);
          placed + 1
        end
        else begin
          List.iter (fun (c, _) -> place (rank c) (-1) Docset.empty) attachments;
          invalid_arg (Printf.sprintf "Nav_tree.build: duplicate attachment for concept %d" c)
        end)
      0 attachments
  in
  let hroot = Hierarchy.root hierarchy in
  let count = if at.(rank hroot) >= 0 then placed else placed + 1 in
  let concept_ids = Array.make count hroot and results = Array.make count Docset.empty in
  let n = ref (count - placed) in
  for r = 0 to n_concepts - 1 do
    if at.(r) >= 0 then begin
      concept_ids.(!n) <- at.(r);
      results.(!n) <- set_at.(r);
      place r (-1) Docset.empty;
      incr n
    end
  done;
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
  (* Subtree sets bottom-up over the tree's citations, kept as sets:
     refinement narrows to a node's subtree results and component unions
     reuse whole subtrees. *)
  let locals = install_union results in
  let tree =
    nest locals ~count
      ~height:(!deepest + 1)
      ~key:(fun i -> rank concept_ids.(i))
      ~limit:(fun i -> Hierarchy.last_descendant_rank hierarchy concept_ids.(i))
      ~own:(Array.get results) ~whole:(Array.get results)
  in
  release locals;
  let labels = Array.map (Hierarchy.label hierarchy) concept_ids in
  make ~concept_ids ~results ~totals ~labels tree

(* Every concept of S is already in [t] (S lies inside its results), and
   a node's nearest ancestor with results in S is on its [t] ancestor
   chain, so filtering [t] in preorder is the maximum embedding of S.
   One pass over [t]'s own results counts each node's citations in S;
   the kept nodes are those with any, plus the root. A set all inside S
   is [t]'s own; only a partial one is read again for its members. *)
let restrict t s =
  let locals = install (Docset.to_array s) in
  let n = Array.length t.parent in
  let inside = Array.make n 0 and m = ref 0 and kept = ref [] in
  let count x = if local locals x >= 0 then incr m in
  for i = n - 1 downto 0 do
    m := 0;
    Docset.iter count t.results.(i);
    inside.(i) <- !m;
    if i = 0 || !m > 0 then kept := i :: !kept
  done;
  let olds = Array.of_list !kept in
  let restricted i =
    let own = t.results.(i) in
    if inside.(i) = Docset.cardinal own then own
    else if inside.(i) = 0 then Docset.empty
    else begin
      let members = Array.make inside.(i) 0 and m = ref 0 in
      Docset.iter (fun x -> if local locals x >= 0 then (members.(!m) <- x; incr m)) own;
      Docset.of_sorted_array_unchecked members
    end
  in
  let results = Array.map restricted olds in
  let tree =
    nest locals ~count:(Array.length olds)
      ~height:(t.height + 1)
      ~key:(Array.get olds)
      ~limit:(fun j -> t.tout.(olds.(j)))
      ~own:(Array.get results)
      ~whole:(fun j -> t.subtree_sets.(olds.(j)))
  in
  release locals;
  let from a = Array.map (fun i -> a.(i)) olds in
  make ~concept_ids:(from t.concept_ids) ~results ~totals:(from t.totals) ~labels:(from t.labels)
    tree

let of_database db result =
  build ~hierarchy:(Database.hierarchy db)
    ~attachments:(Database.concepts_of_result_ds db result)
    ~total_count:(Database.total_count db)

let size t = Array.length t.parent
let root _ = 0
let parent t i = t.parent.(i)

(* A node's children are its subtree interval's blocks, each starting
   just past the previous one's last descendant. *)
let children t i =
  let rec from c = if c > t.tout.(i) then [] else c :: from (t.tout.(c) + 1) in
  from (i + 1)

let depth t i = t.depth.(i)
let is_leaf t i = t.tout.(i) = i
let concept_id t i = t.concept_ids.(i)
let label t i = t.labels.(i)
let results t i = t.results.(i)
let result_count t i = Docset.cardinal t.results.(i)
let total t i = t.totals.(i)
let subtree_distinct t i = Docset.cardinal t.subtree_sets.(i)
let subtree_results t i = t.subtree_sets.(i)
let node_of_concept t c = Hashtbl.find_opt (Lazy.force t.node_of_concept) c
let distinct_results t = subtree_distinct t 0
let total_attached t = Array.fold_left (fun acc s -> acc + Docset.cardinal s) 0 t.results

let height t = t.height

let max_width t =
  let counts = Array.make (height t + 1) 0 in
  Array.iter (fun d -> counts.(d) <- counts.(d) + 1) t.depth;
  Array.fold_left max 0 counts

let root_members t = t.root_members

let root_weight t = t.root_weight

let root_reduction t = t.root_reduction
let set_root_reduction t slot = t.root_reduction <- Some slot

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
      (subtree_distinct t i);
    List.iter go (children t i)
  in
  go 0
