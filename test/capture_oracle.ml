(* The snapshot capture that Active_tree's per-component bookkeeping
   replaced, kept as the differential-test oracle. It recomputes every
   visible component from visibility alone: members by walking each node
   up to its nearest visible ancestor-or-self, results as a union over
   every member, the visible parent by walking up the tree, and the
   relevance-ranked children by scanning every visible node. None of it
   reads the active tree's cached state. *)

open Bionav_util
open Bionav_core
module Nav_snapshot = Bionav_search.Nav_snapshot

let rec owner active i =
  if Active_tree.is_visible active i then i
  else owner active (Nav_tree.parent (Active_tree.nav active) i)

let visible active =
  List.filter (Active_tree.is_visible active)
    (List.init (Nav_tree.size (Active_tree.nav active)) Fun.id)

let members active r =
  List.filter
    (fun i -> owner active i = r)
    (List.init (Nav_tree.size (Active_tree.nav active)) Fun.id)

let results active r =
  let nav = Active_tree.nav active in
  Docset.union_many (List.map (Nav_tree.results nav) (members active r))

let visible_parent active i =
  let nav = Active_tree.nav active in
  let rec up j =
    let p = Nav_tree.parent nav j in
    if p = -1 then -1 else if Active_tree.is_visible active p then p else up p
  in
  up i

let weight active r =
  let nav = Active_tree.nav active in
  List.fold_left
    (fun acc m ->
      let l = Nav_tree.result_count nav m in
      if l = 0 then acc else acc +. (float_of_int l /. float_of_int (Nav_tree.total nav m)))
    0. (members active r)

let ranked_children active node =
  let children = List.filter (fun v -> visible_parent active v = node) (visible active) in
  let weighted = List.map (fun n -> (n, weight active n)) children in
  List.map fst
    (List.sort
       (fun (na, a) (nb, b) -> if a = b then Int.compare na nb else Float.compare b a)
       weighted)

(* The visible nodes in preorder and, for each, the vnode the old capture
   published (results as a fresh copy). *)
let capture active =
  let nav = Active_tree.nav active in
  List.map
    (fun id ->
      let members = Array.of_list (members active id) in
      let results =
        Docset.of_sorted_array_unchecked (Docset.to_array (results active id))
      in
      {
        Nav_snapshot.id;
        label = Nav_tree.label nav id;
        distinct = Docset.cardinal results;
        expandable = Array.length members > 1;
        parent = visible_parent active id;
        children = ranked_children active id;
        members;
        results;
      })
    (visible active)

(* The Definition 5 text view: preorder, indented by visible depth. *)
let render active =
  let nav = Active_tree.nav active in
  let rec depth i = match visible_parent active i with -1 -> 0 | p -> 1 + depth p in
  String.concat ""
    (List.map
       (fun v ->
         Printf.sprintf "%s%s (%d)%s\n"
           (String.make (2 * depth v) ' ')
           (Nav_tree.label nav v)
           (Docset.cardinal (results active v))
           (if List.length (members active v) > 1 then " >>>" else ""))
       (visible active))
