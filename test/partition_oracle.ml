(* The list-based k-partition that the array-based pass in
   lib/core/partition.ml replaced, kept as the differential-test oracle:
   every node filters, folds and sorts its children as OCaml lists, and
   every threshold attempt allocates its arrays afresh. *)

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
