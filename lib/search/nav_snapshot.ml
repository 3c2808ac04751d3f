open Bionav_util
open Bionav_core

type vnode = {
  id : int;
  label : string;
  distinct : int;
  expandable : bool;
  parent : int;
  children : int list;
  members : int array;
  results : Docset.t;
}

type t = {
  epoch : int;
  query : string;
  space : string;
  refine_depth : int;
  model_fingerprint : string;
  stats : Navigation.stats;
  distinct_results : int;
  root : int;
  order : int list;
  index : (int, vnode) Hashtbl.t;
  arena : Docset_arena.t;
  nav : Nav_tree.t;
}

let capture ~epoch ~query ?(space = "descriptor") ?(refine_depth = 0) navigation =
  let active = Navigation.active navigation in
  let nav = Active_tree.nav active in
  let arena = Docset_arena.create () in
  let order = Active_tree.visible active in
  let index = Hashtbl.create (max 16 (List.length order)) in
  (* Every field is read off the active tree's per-component state. The
     results are imported into the snapshot arena, sharing their
     immutable payload; the member arrays are immutable and shared too. *)
  List.iter
    (fun id ->
      let results = Docset.in_arena arena (Active_tree.component_results active id) in
      Hashtbl.replace index id
        {
          id;
          label = Nav_tree.label nav id;
          distinct = Docset.cardinal results;
          expandable = Active_tree.is_expandable active id;
          parent = Active_tree.visible_parent active id;
          children = Relevance.ranked_children active id;
          members = Active_tree.component_members active id;
          results;
        })
    order;
  Docset_arena.freeze arena;
  {
    epoch;
    query;
    space;
    refine_depth;
    model_fingerprint = Navigation.model_fingerprint (Navigation.strategy navigation);
    stats = Navigation.stats navigation;
    distinct_results = Nav_tree.distinct_results nav;
    root = Nav_tree.root nav;
    order;
    index;
    arena;
    nav;
  }

let epoch t = t.epoch
let query t = t.query
let space t = t.space
let refine_depth t = t.refine_depth
let model_fingerprint t = t.model_fingerprint
let stats t = t.stats
let distinct_results t = t.distinct_results
let root t = t.root
let visible t = t.order
let arena t = t.arena
let nav t = t.nav
let find t id = Hashtbl.find_opt t.index id

let get t id =
  match find t id with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Nav_snapshot.get: node %d is not visible" id)

let mem t id = Hashtbl.mem t.index id

let iter t f = List.iter (fun id -> f (get t id)) t.order

let node_count t = Hashtbl.length t.index
