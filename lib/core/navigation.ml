open Bionav_util

type strategy =
  | Heuristic of { k : int; model : Probability.model; reuse : bool }
  | Faceted of { k : int; model : Probability.model; reuse : bool }
  | Optimal of { model : Probability.model }
  | Static
  | Static_paged of { page_size : int }

let bionav ?(k = Heuristic.default_k) ?params ?model ?(reuse = false) () =
  Heuristic { k; model = Probability.model_of ?params ?model (); reuse }

let faceted ?(k = Heuristic.default_k) ?params ?model ?(reuse = false) () =
  let model =
    match (model, params) with
    | Some m, _ -> m
    | None, Some p -> Probability.static ~params:p ()
    | None, None -> Probability.facet_model
  in
  Faceted { k; model; reuse }

let optimal ?params ?model () = Optimal { model = Probability.model_of ?params ?model () }

let model_fingerprint = function
  | Heuristic { model; _ } | Optimal { model } -> model.Probability.fingerprint
  | Faceted { model; _ } -> "faceted/" ^ model.Probability.fingerprint
  | Static -> "static-interface"
  | Static_paged { page_size } -> Printf.sprintf "static-paged/%d" page_size

type expand_record = {
  node : int;
  n_revealed : int;
  elapsed_ms : float;
  reduced_size : int;
  degraded : bool;
}

type stats = {
  expands : int;
  revealed : int;
  results_listed : int;
  history : expand_record list;
}

let navigation_cost s = s.expands + s.revealed

let total_cost s = s.expands + s.revealed + s.results_listed

type plan_source = {
  find_plan : root:int -> members:Docset.t -> members_fp:int -> int list option;
  store_plan : root:int -> members:Docset.t -> members_fp:int -> cut:int list -> unit;
}

type t = {
  active : Active_tree.t;
  strategy : strategy;
  mutable stats : stats;
  plans : (int, Heuristic.plan) Hashtbl.t;
      (* visible node -> reusable solver state for its component *)
  mutable plan_source : plan_source option;
  mutable budget : (unit -> unit -> bool) option;
      (* called at EXPAND entry; returns the over-budget check consulted
         before any solver runs (see set_budget) *)
}

let start strategy nav_tree =
  {
    active = Active_tree.create nav_tree;
    strategy;
    stats = { expands = 0; revealed = 0; results_listed = 0; history = [] };
    plans = Hashtbl.create 16;
    plan_source = None;
    budget = None;
  }

let active t = t.active
let strategy t = t.strategy
let stats t = t.stats
let set_plan_source t src = t.plan_source <- src
let set_budget t f = t.budget <- f

(* Translate component-tree cut children (indices) back to navigation nodes
   through the component tree's tags. *)
let nav_cut_children comp cut = List.map (Comp_tree.tag comp) cut

(* The footnote-2 "more button" interface: the next [page_size] children of
   [root] still hidden in its component, most results first. *)
let next_page t root page_size =
  let active = t.active in
  let nav = Active_tree.nav active in
  let hidden_children =
    List.filter
      (fun c -> Active_tree.component_root_of active c = root)
      (Nav_tree.children nav root)
  in
  let by_count_desc =
    List.sort
      (fun a b -> Int.compare (Nav_tree.subtree_distinct nav b) (Nav_tree.subtree_distinct nav a))
      hidden_children
  in
  List.filteri (fun i _ -> i < page_size) by_count_desc

let degraded_counter = Metrics.counter "bionav_resilience_degraded_expands_total"

let heuristic_cut t root ~over_budget ~k ~model ~reuse =
  let fresh () =
    let comp, _map = Active_tree.comp_tree t.active root in
    let report, plan = Heuristic.best_cut_with_plan ~model ~k comp in
    if reuse then Hashtbl.replace t.plans root plan;
    ( `Cut (nav_cut_children comp report.Heuristic.cut_children),
      report.Heuristic.elapsed_ms,
      report.Heuristic.reduced_size,
      false )
  in
  let computed () =
    if not reuse then fresh ()
    else
      match Hashtbl.find_opt t.plans root with
      | Some plan -> (
          match Heuristic.replan plan with
          | Some (report, next_plan) ->
              Logs.debug (fun m -> m "navigation: reused plan for node %d" root);
              Hashtbl.replace t.plans root next_plan;
              (* Cut children are indices of the plan's original component
                 tree, whose tags are navigation nodes. *)
              let orig = Heuristic.original_tree plan in
              ( `Cut (nav_cut_children orig report.Heuristic.cut_children),
                report.Heuristic.elapsed_ms,
                report.Heuristic.reduced_size,
                false )
          | None ->
              Hashtbl.remove t.plans root;
              fresh ())
      | None -> fresh ()
  in
  (* Graceful degradation: once the EXPAND budget is exhausted (and no
     memoized plan could answer for free), serve the k highest-count
     children — a Static_paged-style cut — instead of completing
     Heuristic-ReducedOpt. The record is tagged so callers can tell. *)
  let compute_or_degrade () =
    if over_budget () then begin
      Metrics.incr degraded_counter;
      Logs.debug (fun m -> m "navigation: budget exhausted, degraded cut for node %d" root);
      (`Cut (next_page t root k), 0., 0, true)
    end
    else computed ()
  in
  match t.plan_source with
  | None -> compute_or_degrade ()
  | Some src -> (
      let members, members_fp = Active_tree.component_key t.active root in
      match src.find_plan ~root ~members ~members_fp with
      | Some (_ :: _ as cut) ->
          Logs.debug (fun m -> m "navigation: injected plan for node %d" root);
          (`Cut cut, 0., 0, false)
      | Some [] | None ->
          let ((action, _, _, degraded) as result) = compute_or_degrade () in
          (* A degraded cut is not a Heuristic-ReducedOpt solution; caching
             it would poison future sessions with static-quality plans. *)
          (match action with
          | `Cut (_ :: _ as cut) when not degraded ->
              src.store_plan ~root ~members ~members_fp ~cut
          | `Cut _ | `Static -> ());
          result)

let compute_cut t ~over_budget root =
  match t.strategy with
  | Static -> (`Static, 0., 0, false)
  | Static_paged { page_size } ->
      if page_size < 1 then invalid_arg "Navigation: page_size must be >= 1";
      (`Cut (next_page t root page_size), 0., 0, false)
  | Heuristic { k; model; reuse } | Faceted { k; model; reuse } ->
      heuristic_cut t root ~over_budget ~k ~model ~reuse
  | Optimal { model } ->
      let comp, _map = Active_tree.comp_tree t.active root in
      let (solution : Opt_edgecut.solution), elapsed =
        Timing.time (fun () -> Opt_edgecut.solve ~model comp)
      in
      ( `Cut (nav_cut_children comp solution.Opt_edgecut.cut_children),
        elapsed,
        Comp_tree.size comp,
        false )

let expand_hist = Metrics.histogram "bionav_expand_latency_ms"
let expands_counter = Metrics.counter "bionav_expands_total"
let revealed_counter = Metrics.counter "bionav_concepts_revealed_total"

let expand t root =
  if not (Active_tree.is_expandable t.active root) then []
  else begin
    let over_budget =
      match t.budget with None -> fun () -> false | Some start -> start ()
    in
    let (revealed, elapsed, reduced_size, degraded), total_ms =
      Timing.time (fun () ->
          let action, elapsed, reduced_size, degraded = compute_cut t ~over_budget root in
          let revealed =
            match action with
            | `Static -> Active_tree.expand_static t.active root
            | `Cut [] -> []
            | `Cut (_ :: _ as cut_children) -> Active_tree.apply_cut t.active ~root ~cut_children
          in
          (revealed, elapsed, reduced_size, degraded))
    in
    if revealed = [] then []
    else begin
    let record =
      {
        node = root;
        n_revealed = List.length revealed;
        elapsed_ms = elapsed;
        reduced_size;
        degraded;
      }
    in
    Metrics.observe expand_hist total_ms;
    Metrics.incr expands_counter;
    Metrics.incr ~by:record.n_revealed revealed_counter;
    t.stats <-
      {
        t.stats with
        expands = t.stats.expands + 1;
        revealed = t.stats.revealed + record.n_revealed;
        history = record :: t.stats.history;
      };
    revealed
    end
  end

let show_results t root =
  let results = Active_tree.component_results t.active root in
  t.stats <- { t.stats with results_listed = t.stats.results_listed + Docset.cardinal results };
  results

let backtrack t = Active_tree.backtrack t.active
