open Bionav_util
module Simulate = Bionav_core.Simulate
module Navigation = Bionav_core.Navigation

let name_of (r : Experiment.run) = r.Experiment.query.Queries.spec.Queries.name

let table1 (w : Queries.t) =
  let header =
    [
      "Keyword(s)"; "#Results"; "TreeSize"; "MaxWidth"; "Height"; "Cit.w/Dup";
      "TgtLevel"; "L(tgt)"; "LT(tgt)"; "Target Concept";
    ]
  in
  let rows =
    List.map
      (fun q ->
        [
          q.Queries.spec.Queries.name;
          string_of_int (Queries.result_count q);
          string_of_int (Queries.tree_size q);
          string_of_int (Queries.max_width q);
          string_of_int (Queries.tree_height q);
          string_of_int (Queries.citations_with_duplicates q);
          string_of_int (Queries.target_level q);
          string_of_int (Queries.target_l q);
          string_of_int (Queries.target_lt q);
          q.Queries.spec.Queries.target_name;
        ])
      w.Queries.queries
  in
  Table.section "Table I: Query workload"
  ^ "\n"
  ^ Table.render ~header
      [ Table.Left; Right; Right; Right; Right; Right; Right; Right; Right; Left ]
      rows

let fig8 runs =
  let series =
    List.map
      (fun r ->
        ( name_of r,
          float_of_int r.Experiment.static.Simulate.navigation_cost,
          float_of_int r.Experiment.bionav.Simulate.navigation_cost ))
      runs
  in
  let rows =
    List.map
      (fun r ->
        [
          name_of r;
          string_of_int r.Experiment.static.Simulate.navigation_cost;
          string_of_int r.Experiment.bionav.Simulate.navigation_cost;
          Printf.sprintf "%.0f%%" (100. *. Experiment.improvement r);
        ])
      runs
  in
  Table.section "Fig. 8: Navigation cost (concepts revealed + EXPAND actions)"
  ^ "\n"
  ^ Table.render ~header:[ "Query"; "Static"; "BioNav"; "Improvement" ]
      [ Table.Left; Right; Right; Right ]
      rows
  ^ Printf.sprintf "Average improvement: %.0f%% (paper: 85%%)\n\n"
      (100. *. Experiment.average_improvement runs)
  ^ Table.grouped_bar_chart ~title:"Navigation cost" ~series_names:("static", "bionav") series

let fig9 runs =
  let rows =
    List.map
      (fun r ->
        [
          name_of r;
          string_of_int r.Experiment.static.Simulate.expands;
          string_of_int r.Experiment.bionav.Simulate.expands;
        ])
      runs
  in
  Table.section "Fig. 9: Number of EXPAND actions"
  ^ "\n"
  ^ Table.render ~header:[ "Query"; "Static"; "BioNav" ] [ Table.Left; Right; Right ] rows

let fig10 runs =
  let series =
    List.map (fun r -> (name_of r, Experiment.mean_expand_ms r.Experiment.bionav)) runs
  in
  Table.section "Fig. 10: Heuristic-ReducedOpt average execution time per EXPAND (ms)"
  ^ "\n"
  ^ Table.bar_chart ~title:"avg ms per EXPAND" series

let space_table (runs : Experiment.space_run list) =
  let rows =
    List.map
      (fun (r : Experiment.space_run) ->
        let vs cost =
          if r.Experiment.topdown_cost <= 0 then "-"
          else
            Printf.sprintf "%+.0f%%"
              (100.
              *. (1. -. (float_of_int cost /. float_of_int r.Experiment.topdown_cost)))
        in
        [
          r.Experiment.space_query.Queries.spec.Queries.name;
          string_of_int r.Experiment.topdown_cost;
          string_of_int r.Experiment.refine_cost;
          vs r.Experiment.refine_cost;
          string_of_int r.Experiment.refine_result_size;
          string_of_int r.Experiment.facet_cost;
          vs r.Experiment.facet_cost;
          string_of_int r.Experiment.facet_pages;
        ])
      runs
  in
  let mean f =
    match runs with
    | [] -> 0.
    | _ ->
        List.fold_left (fun acc r -> acc +. f r) 0. runs /. float_of_int (List.length runs)
  in
  let mean_saving cost_of =
    mean (fun (r : Experiment.space_run) ->
        if r.Experiment.topdown_cost <= 0 then 0.
        else 1. -. (float_of_int (cost_of r) /. float_of_int r.Experiment.topdown_cost))
  in
  Table.section "Navigation spaces: refinement & qualifier facets vs TOPDOWN"
  ^ "\n"
  ^ Table.render
      ~header:
        [ "Query"; "TOPDOWN"; "Refine"; "vs TD"; "|L| after"; "Facet"; "vs TD"; "Pages" ]
      [ Table.Left; Right; Right; Right; Right; Right; Right; Right ]
      rows
  ^ Printf.sprintf "Mean refine-hybrid saving: %+.0f%%; mean facet-route saving: %+.0f%%\n"
      (100. *. mean_saving (fun r -> r.Experiment.refine_cost))
      (100. *. mean_saving (fun r -> r.Experiment.facet_cost))

(* Minimal CSV quoting: labels may contain commas ("Mice, Transgenic"). *)
let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_of_rows rows =
  String.concat "\n" (List.map (fun row -> String.concat "," (List.map csv_cell row)) rows)
  ^ "\n"

let table1_csv (w : Queries.t) =
  csv_of_rows
    ([ "query"; "results"; "tree_size"; "max_width"; "height"; "citations_with_duplicates";
       "target_level"; "target_l"; "target_lt"; "target_concept" ]
    :: List.map
         (fun q ->
           [
             q.Queries.spec.Queries.name;
             string_of_int (Queries.result_count q);
             string_of_int (Queries.tree_size q);
             string_of_int (Queries.max_width q);
             string_of_int (Queries.tree_height q);
             string_of_int (Queries.citations_with_duplicates q);
             string_of_int (Queries.target_level q);
             string_of_int (Queries.target_l q);
             string_of_int (Queries.target_lt q);
             q.Queries.spec.Queries.target_name;
           ])
         w.Queries.queries)

let fig8_csv runs =
  csv_of_rows
    ([ "query"; "static_cost"; "bionav_cost"; "improvement" ]
    :: List.map
         (fun r ->
           [
             name_of r;
             string_of_int r.Experiment.static.Simulate.navigation_cost;
             string_of_int r.Experiment.bionav.Simulate.navigation_cost;
             Printf.sprintf "%.4f" (Experiment.improvement r);
           ])
         runs)

let fig9_csv runs =
  csv_of_rows
    ([ "query"; "static_expands"; "bionav_expands" ]
    :: List.map
         (fun r ->
           [
             name_of r;
             string_of_int r.Experiment.static.Simulate.expands;
             string_of_int r.Experiment.bionav.Simulate.expands;
           ])
         runs)

let fig10_csv runs =
  csv_of_rows
    ([ "query"; "mean_expand_ms" ]
    :: List.map
         (fun r -> [ name_of r; Printf.sprintf "%.4f" (Experiment.mean_expand_ms r.Experiment.bionav) ])
         runs)

let fig11_csv (r : Experiment.run) =
  csv_of_rows
    ([ "step"; "partitions"; "elapsed_ms"; "revealed" ]
    :: List.mapi
         (fun i (rec_ : Navigation.expand_record) ->
           [
             string_of_int (i + 1);
             string_of_int rec_.Navigation.reduced_size;
             Printf.sprintf "%.4f" rec_.Navigation.elapsed_ms;
             string_of_int rec_.Navigation.n_revealed;
           ])
         r.Experiment.bionav.Simulate.history)

let fig11 (r : Experiment.run) =
  let rows =
    List.mapi
      (fun i (rec_ : Navigation.expand_record) ->
        [
          Printf.sprintf "EXPAND %d" (i + 1);
          Printf.sprintf "%d partitions" rec_.Navigation.reduced_size;
          Printf.sprintf "%.2f ms" rec_.Navigation.elapsed_ms;
          Printf.sprintf "%d revealed" rec_.Navigation.n_revealed;
        ])
      r.Experiment.bionav.Simulate.history
  in
  Table.section (Printf.sprintf "Fig. 11: per-EXPAND execution time for %S" (name_of r))
  ^ "\n"
  ^ Table.render ~header:[ "Step"; "Reduced tree"; "Time"; "Revealed" ]
      [ Table.Left; Right; Right; Right ]
      rows
