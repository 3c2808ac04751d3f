(* The warm-start builder [Engine.warm] replaced, kept as its oracle.
   It ran beside the engine: each normalized, deduplicated query was
   searched, its tree built outside the tree cache, and its root cut
   captured from one EXPAND of a side session whose plan source misses
   every lookup and records what the session stores. [Engine.warm] must
   return the same entries, so the snapshot bytes they encode to are
   unchanged. *)

open Bionav_util
open Bionav_core
module Snapshot = Bionav_store.Snapshot

let root_cut_of ~k ~model nav =
  let session = Navigation.start (Navigation.bionav ~k ~model ()) nav in
  let captured = ref [] in
  Navigation.set_plan_source session
    (Some
       {
         Navigation.find_plan = (fun ~root:_ ~members:_ ~members_fp:_ -> None);
         store_plan = (fun ~root:_ ~members:_ ~members_fp:_ ~cut -> captured := cut);
       });
  ignore (Navigation.expand session (Nav_tree.root nav) : int list);
  !captured

let build ~db ~run ?(k = Heuristic.default_k) ?(model = Probability.default_model) queries =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun query ->
      let query = Nav_cache.normalize query in
      if Hashtbl.mem seen query then None
      else begin
        Hashtbl.add seen query ();
        let results = run query in
        let nav = Nav_tree.of_database db results in
        let root_cut = root_cut_of ~k ~model nav in
        Some { Snapshot.query; results = Docset.to_intset results; root_cut }
      end)
    queries
