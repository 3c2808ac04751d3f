module Simulate = Bionav_core.Simulate
module Navigation = Bionav_core.Navigation
module Probability = Bionav_core.Probability
module Active_tree = Bionav_core.Active_tree
module Session_log = Bionav_core.Session_log
module Adaptive = Bionav_adaptive.Adaptive
module Engine = Bionav_engine.Engine
module Rng = Bionav_util.Rng
module Zipf = Bionav_util.Zipf
module Stats = Bionav_util.Stats

type run = { query : Queries.query; static : Simulate.outcome; bionav : Simulate.outcome }

let improvement r =
  let s = float_of_int r.static.Simulate.navigation_cost in
  let b = float_of_int r.bionav.Simulate.navigation_cost in
  if s <= 0. then 0. else 1. -. (b /. s)

let mean_expand_ms (o : Simulate.outcome) =
  match o.Simulate.history with
  | [] -> 0.
  | h ->
      List.fold_left (fun acc (r : Navigation.expand_record) -> acc +. r.elapsed_ms) 0. h
      /. float_of_int (List.length h)

let run_strategy (q : Queries.query) strategy =
  Simulate.to_target (Engine.start strategy q.Queries.nav) ~target:q.Queries.target_node

let run_query ?k ?params (q : Queries.query) =
  let target = q.Queries.target_node in
  let run strategy = Simulate.to_target (Engine.start strategy q.Queries.nav) ~target in
  let static = run Navigation.Static in
  let bionav = run (Navigation.bionav ?k ?params ()) in
  { query = q; static; bionav }

let run_all ?k ?params (w : Queries.t) = List.map (run_query ?k ?params) w.Queries.queries

let average_improvement runs =
  match runs with
  | [] -> 0.
  | _ ->
      List.fold_left (fun acc r -> acc +. improvement r) 0. runs
      /. float_of_int (List.length runs)

(* --- navigation spaces: refinement & facets vs TOPDOWN ------------------- *)

type space_run = {
  space_query : Queries.query;
  topdown_cost : int;
  refine_cost : int;
  refine_result_size : int;
  facet_cost : int;
  facet_pages : int;
}

let refinement_vs_topdown ?k (w : Queries.t) =
  let module Nav_tree = Bionav_core.Nav_tree in
  let module Nav_space = Bionav_core.Nav_space in
  let deriver = Nav_space.deriver ~medline:w.Queries.medline w.Queries.database in
  List.map
    (fun (q : Queries.query) ->
      let nav = q.Queries.nav in
      let target = q.Queries.target_node in
      let topdown =
        Simulate.to_target (Engine.start (Navigation.bionav ?k ()) nav) ~target
      in
      (* Refine-hybrid: EXPAND the root once, then query-by-navigation into
         the component holding the target — its subtree result set becomes
         the live result set and a much smaller descriptor space is
         filtered out of the query's tree — and finish the drill-down there. The refinement
         itself charges 1 action, like an EXPAND. *)
      let session = Engine.start (Navigation.bionav ?k ()) nav in
      let active = Navigation.active session in
      ignore (Navigation.expand session (Nav_tree.root nav) : int list);
      let refine_cost, refine_result_size =
        if Active_tree.is_visible active target then
          ( Navigation.navigation_cost (Navigation.stats session),
            Nav_tree.distinct_results nav )
        else begin
          let anchor = Active_tree.component_root_of active target in
          let subset = Nav_tree.subtree_results nav anchor in
          let pre = Navigation.navigation_cost (Navigation.stats session) in
          let nav' = Nav_tree.restrict nav subset in
          let size = Bionav_util.Docset.cardinal subset in
          match Nav_tree.node_of_concept nav' (Nav_tree.concept_id nav target) with
          | None -> (pre + 1, size)
          | Some target' ->
              let o =
                Simulate.to_target
                  (Engine.start (Navigation.bionav ?k ()) nav')
                  ~target:target'
              in
              (pre + 1 + o.Simulate.navigation_cost, size)
        end
      in
      (* Facet: derive the qualifier space over the whole result set and
         isolate the page holding the largest share of the target's
         citations — the facet analogue of "get me to the relevant slice". *)
      let universe = Nav_tree.subtree_results nav (Nav_tree.root nav) in
      let fnav = Nav_space.derive deriver Nav_space.Qualifier_facet universe in
      let target_results = Nav_tree.subtree_results nav target in
      let best = ref (Nav_tree.root fnav) and best_overlap = ref (-1) in
      for i = 1 to Nav_tree.size fnav - 1 do
        let overlap =
          Bionav_util.Docset.inter_cardinal (Nav_tree.subtree_results fnav i) target_results
        in
        if overlap > !best_overlap then begin
          best := i;
          best_overlap := overlap
        end
      done;
      let facet =
        Simulate.to_target (Engine.start (Navigation.faceted ?k ()) fnav) ~target:!best
      in
      {
        space_query = q;
        topdown_cost = topdown.Simulate.navigation_cost;
        refine_cost;
        refine_result_size;
        facet_cost = facet.Simulate.navigation_cost;
        facet_pages = Nav_tree.size fnav - 1;
      })
    w.Queries.queries

(* --- learned vs static (the Bionav_adaptive experiment) ----------------- *)

(* A stochastic-user population is a distribution over navigation targets:
   users draw a goal concept (Zipf over a population-specific pool —
   biomedical navigation is famously heavy-tailed) and navigate to it.
   Three deliberately different populations:
   - focused: most sessions chase a handful of deep, specific concepts
     (a research group mining its own niche);
   - shallow: traffic concentrates on a few broad, near-root categories
     (survey-style browsing);
   - diffuse: targets spread almost uniformly over the whole tree — the
     closest real behaviour gets to the paper's static assumptions, so
     learning has the least to add here. *)
type population = {
  pop_name : string;
  pop_exponent : float;  (* Zipf exponent of the target draw *)
  pop_depth : [ `Deep | `Shallow | `Any ];  (* hierarchy-depth slice of the pool *)
}

let populations =
  [
    { pop_name = "focused"; pop_exponent = 1.6; pop_depth = `Deep };
    { pop_name = "shallow"; pop_exponent = 1.3; pop_depth = `Shallow };
    { pop_name = "diffuse"; pop_exponent = 0.3; pop_depth = `Any };
  ]

type adaptive_run = {
  population : string;
  trained_sessions : int;
  eval_sessions : int;
  static_mean_cost : float;
  learned_mean_cost : float;
  cost_reduction : float;  (* 1 - learned/static; > 0 when learning wins *)
}

(* The population's target pool on one query tree, in a population-seeded
   order (rank 0 of the Zipf draw = that population's favourite concept,
   which must not correlate with tree preorder). *)
let target_pool hierarchy (q : Queries.query) pop ~seed =
  let module Nav_tree = Bionav_core.Nav_tree in
  let nav = q.Queries.nav in
  let depth node =
    Bionav_mesh.Hierarchy.depth hierarchy (Nav_tree.concept_id nav node)
  in
  let all = List.init (Nav_tree.size nav - 1) (fun i -> i + 1) in
  let sliced =
    let keep =
      match pop.pop_depth with
      | `Deep -> fun n -> depth n >= 4
      | `Shallow -> fun n -> depth n <= 2
      | `Any -> fun _ -> true
    in
    match List.filter keep all with [] -> all | l -> l
  in
  let pool = Array.of_list sliced in
  let rng = Rng.create seed in
  for i = Array.length pool - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  pool

let draw_target pools zipfs rng qi = (Array.get pools qi).(Zipf.draw (Array.get zipfs qi) rng)

(* Drive one recorded session to [target] exactly as Simulate.to_target
   would, through the Session_log recorder so the transcript carries v2
   outcomes (revealed concepts, listing sizes) for Adaptive.learn. *)
let drill_recorded session ~target =
  let recorder = Session_log.record session in
  let active = Navigation.active session in
  let rec step n =
    if n <= 1000 && not (Active_tree.is_visible active target) then begin
      let root = Active_tree.component_root_of active target in
      if Session_log.expand recorder root <> [] then step (n + 1)
    end
  in
  step 0;
  if Active_tree.is_visible active target then
    ignore (Session_log.show_results recorder target : Bionav_util.Docset.t);
  Session_log.events recorder

let run_population ?k ~train ~eval_walks ~seed ~config (w : Queries.t) pop =
  let queries = Array.of_list w.Queries.queries in
  let nq = Array.length queries in
  let pools =
    Array.mapi
      (fun qi q ->
        target_pool w.Queries.hierarchy q pop
          ~seed:((seed * 131) + (qi * 17) + Hashtbl.hash pop.pop_name))
      queries
  in
  let zipfs =
    Array.map
      (fun pool -> Zipf.create ~exponent:pop.pop_exponent (Array.length pool))
      pools
  in
  let ad = Adaptive.create ~config () in
  let rng_train = Rng.create ((seed * 2) + 1) in
  for i = 0 to train - 1 do
    let qi = i mod nq in
    let q = queries.(qi) in
    let target = draw_target pools zipfs rng_train qi in
    let session = Engine.start (Navigation.bionav ?k ()) q.Queries.nav in
    Adaptive.learn ad (drill_recorded session ~target)
  done;
  let model = Adaptive.model ad in
  let rng_eval = Rng.create ((seed * 2) + 2) in
  let static_costs = Array.make eval_walks 0. in
  let learned_costs = Array.make eval_walks 0. in
  for i = 0 to eval_walks - 1 do
    let qi = i mod nq in
    let q = queries.(qi) in
    let target = draw_target pools zipfs rng_eval qi in
    let cost strategy =
      let o = Simulate.to_target (Engine.start strategy q.Queries.nav) ~target in
      float_of_int o.Simulate.navigation_cost
    in
    static_costs.(i) <- cost (Navigation.bionav ?k ());
    learned_costs.(i) <- cost (Navigation.bionav ?k ~model ())
  done;
  let static_mean_cost = Stats.mean static_costs in
  let learned_mean_cost = Stats.mean learned_costs in
  {
    population = pop.pop_name;
    trained_sessions = train;
    eval_sessions = eval_walks;
    static_mean_cost;
    learned_mean_cost;
    cost_reduction =
      (if static_mean_cost <= 0. then 0. else 1. -. (learned_mean_cost /. static_mean_cost));
  }

let learned_vs_static ?k ?(train = 120) ?(eval_walks = 120) ?(seed = 42)
    ?(config = Adaptive.default_config) (w : Queries.t) =
  List.map (run_population ?k ~train ~eval_walks ~seed ~config w) populations
