open Bionav_util
open Bionav_core
module Snapshot = Bionav_store.Snapshot

let warmed_counter = Metrics.counter "bionav_prefetch_warmed_queries_total"

(* The root cut exactly as a fresh Heuristic session would compute it: run
   one EXPAND through Navigation itself and capture what it memoizes, so
   the snapshot stays byte-identical to live behaviour by construction. *)
let root_cut_of ~k ~model nav =
  let session = Navigation.start (Navigation.bionav ~k ~model ()) nav in
  let captured = ref [] in
  Navigation.set_plan_source session
    (Some
       {
         Navigation.find_plan = (fun ~root:_ ~members:_ -> None);
         store_plan = (fun ~root:_ ~members:_ ~cut -> captured := cut);
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
        Logs.info (fun m ->
            m "warmer: %S -> %d results, %d nodes, root cut of %d" query
              (Docset.cardinal results) (Nav_tree.size nav) (List.length root_cut));
        Some { Snapshot.query; results = Docset.to_intset results; root_cut }
      end)
    queries

let apply ~db ~trees ?plans ?(model = Probability.default_model) entries =
  List.iter
    (fun e ->
      let nav = Nav_tree.of_database db (Docset.of_intset e.Snapshot.results) in
      Nav_cache.put trees e.query nav;
      Metrics.incr warmed_counter;
      match plans with
      | Some plans when e.root_cut <> [] ->
          (* The full-tree member set: its content fingerprint matches
             what serving sessions key on. *)
          let members = Docset.of_sorted_array_unchecked (Array.init (Nav_tree.size nav) Fun.id) in
          Plan_cache.store plans ~query:e.query ~fingerprint:model.Probability.fingerprint
            ~root:(Nav_tree.root nav) ~members ~cut:e.root_cut
      | Some _ | None -> ())
    entries;
  List.length entries
