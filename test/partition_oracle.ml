(* Two k-partitions kept as differential-test oracles for
   lib/core/partition.ml:

   - the list-based one that the array-based pass replaced: every node
     filters, folds and sorts its children as OCaml lists, and every
     threshold attempt allocates its arrays afresh;
   - [Rebuilding], the array-based pass as it was before component trees
     stored their children as arrays: every call rebuilds each node's
     children from the tree's lists. *)

open Bionav_core

let node_weight = Partition.node_weight
let total_weight = Partition.total_weight

let run tree ~threshold : Partition.result =
  if threshold <= 0. then invalid_arg "Partition.run: non-positive threshold";
  let n = Comp_tree.size tree in
  let cluster_weight = Array.make n 0. in
  let detached = Array.make n false in
  (* Node ids are a topological order (parents first), so a reverse scan is
     a bottom-up traversal. *)
  for v = n - 1 downto 0 do
    let attached =
      List.filter (fun c -> not detached.(c)) (Comp_tree.children tree v)
    in
    let weight =
      List.fold_left (fun acc c -> acc +. cluster_weight.(c)) (node_weight tree v) attached
    in
    cluster_weight.(v) <- weight;
    let by_weight_desc =
      List.sort (fun a b -> compare cluster_weight.(b) cluster_weight.(a)) attached
    in
    let rec shed remaining = function
      | [] -> remaining
      | heaviest :: rest ->
          if remaining > threshold then begin
            detached.(heaviest) <- true;
            shed (remaining -. cluster_weight.(heaviest)) rest
          end
          else remaining
    in
    cluster_weight.(v) <- shed weight by_weight_desc
  done;
  let assignment = Array.make n 0 in
  (* Top-down: a node either starts a partition (detached, or the root) or
     inherits its parent's. *)
  for v = 0 to n - 1 do
    if v = 0 || detached.(v) then assignment.(v) <- v
    else assignment.(v) <- assignment.(Comp_tree.parent tree v)
  done;
  let roots =
    List.filter (fun v -> assignment.(v) = v) (List.init n Fun.id)
  in
  { assignment; roots; threshold }

let run_k ?(growth = 1.3) tree ~k =
  if k < 1 then invalid_arg "Partition.run_k: k must be >= 1";
  if growth <= 1.0 then invalid_arg "Partition.run_k: growth must exceed 1";
  let total = Float.max 1.0 (total_weight tree) in
  let rec attempt threshold =
    let res = run tree ~threshold in
    if List.length res.roots <= k || threshold >= total then res
    else attempt (threshold *. growth)
  in
  attempt (total /. float_of_int k)

module Rebuilding = struct
  type result = Partition.result = { assignment : int array; roots : int list; threshold : float }

  (* Everything a bottom-up pass reads, computed once per call, plus the
     arrays it writes, reused by every threshold attempt of [run_k]. *)
  type work = {
    tree : Comp_tree.t;
    weight : float array;  (* node_weight, per node *)
    kids : int array array;  (* children, ascending *)
    cluster : float array;  (* cluster weight left attached to each node *)
    detached : bool array;
  }

  let work tree =
    let n = Comp_tree.size tree in
    {
      tree;
      weight = Array.init n (node_weight tree);
      kids = Array.init n (fun v -> Array.of_list (Comp_tree.children tree v));
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
      let kids = w.kids.(v) in
      let weight = ref w.weight.(v) in
      for i = 0 to Array.length kids - 1 do
        weight := !weight +. w.cluster.(kids.(i))
      done;
      if !weight > threshold then begin
        (* Only an overweight cluster sheds, so only its children are sorted. *)
        let by_weight_desc = Array.copy kids in
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
end
