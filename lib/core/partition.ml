type result = { assignment : int array; roots : int list; threshold : float }

let node_weight tree v = float_of_int (Comp_tree.result_count tree v)

let total_weight tree =
  let acc = ref 0. in
  for v = 0 to Comp_tree.size tree - 1 do
    acc := !acc +. node_weight tree v
  done;
  !acc

(* The node weights, computed once per call, plus the arrays a pass
   writes, reused by every threshold attempt of [run_k]. Children are
   read straight off the tree's flat child index. *)
type work = {
  tree : Comp_tree.t;
  weight : float array;  (* node_weight, per node *)
  kid_start : int array;  (* children of v: kids.(kid_start.(v) .. kid_start.(v+1) - 1) *)
  kids : int array;
  cluster : float array;  (* cluster weight left attached to each node *)
  detached : bool array;
}

let work tree =
  let n = Comp_tree.size tree in
  let kid_start, kids = Comp_tree.child_index tree in
  {
    tree;
    weight = Array.init n (node_weight tree);
    kid_start;
    kids;
    cluster = Array.make n 0.;
    detached = Array.make n false;
  }

(* One bottom-up pass; returns the number of partitions. Node ids are a
   topological order (parents first), so a reverse scan is bottom-up. A
   child's cluster is only ever detached by its parent, so every child is
   still attached when its parent is reached. The float sums run in the
   order the list-based formulation used (children ascending, then the
   heaviest first with ties in ascending order), which keeps thresholds
   and assignments bit-identical to it. *)
let pass w threshold =
  let n = Array.length w.weight in
  Array.fill w.detached 0 n false;
  let parts = ref 1 in
  for v = n - 1 downto 0 do
    let first = w.kid_start.(v) and stop = w.kid_start.(v + 1) in
    let weight = ref w.weight.(v) in
    for i = first to stop - 1 do
      weight := !weight +. w.cluster.(w.kids.(i))
    done;
    if !weight > threshold then begin
      (* Only an overweight cluster sheds, so only its children are sorted. *)
      let by_weight_desc = Array.sub w.kids first (stop - first) in
      Array.stable_sort (fun a b -> Float.compare w.cluster.(b) w.cluster.(a)) by_weight_desc;
      let i = ref 0 in
      while !weight > threshold && !i < Array.length by_weight_desc do
        let heaviest = by_weight_desc.(!i) in
        w.detached.(heaviest) <- true;
        incr parts;
        weight := !weight -. w.cluster.(heaviest);
        incr i
      done
    end;
    w.cluster.(v) <- !weight
  done;
  !parts

let result w threshold =
  let n = Array.length w.weight in
  let assignment = Array.make n 0 in
  (* Top-down: a node either starts a partition (detached, or the root) or
     inherits its parent's. *)
  for v = 1 to n - 1 do
    assignment.(v) <-
      (if w.detached.(v) then v else assignment.(Comp_tree.parent w.tree v))
  done;
  let roots = ref [] in
  for v = n - 1 downto 0 do
    if assignment.(v) = v then roots := v :: !roots
  done;
  { assignment; roots = !roots; threshold }

let run tree ~threshold =
  if threshold <= 0. then invalid_arg "Partition.run: non-positive threshold";
  let w = work tree in
  ignore (pass w threshold : int);
  result w threshold

let run_k ?(growth = 1.3) tree ~k =
  if k < 1 then invalid_arg "Partition.run_k: k must be >= 1";
  if growth <= 1.0 then invalid_arg "Partition.run_k: growth must exceed 1";
  let w = work tree in
  let total = Float.max 1.0 (Array.fold_left ( +. ) 0. w.weight) in
  let rec attempt threshold =
    if pass w threshold <= k || threshold >= total then result w threshold
    else attempt (threshold *. growth)
  in
  attempt (total /. float_of_int k)
