(** The §VIII-A/B experiment: oracle navigation to each query's target under
    BioNav (Heuristic-ReducedOpt) and the static baseline, with timing. *)

type run = {
  query : Queries.query;
  static : Bionav_core.Simulate.outcome;
  bionav : Bionav_core.Simulate.outcome;
}

val improvement : run -> float
(** [1 - bionav_cost / static_cost], in [0, 1] when BioNav wins. *)

val mean_expand_ms : Bionav_core.Simulate.outcome -> float
(** Average per-EXPAND cut-computation time (0 for a run with no expands). *)

val run_strategy :
  Queries.query -> Bionav_core.Navigation.strategy -> Bionav_core.Simulate.outcome
(** One oracle navigation to the query's target under an arbitrary
    strategy (used by the baseline comparisons). *)

val run_query :
  ?k:int -> ?params:Bionav_core.Probability.params -> Queries.query -> run

val run_all :
  ?k:int -> ?params:Bionav_core.Probability.params -> Queries.t -> run list

val average_improvement : run list -> float

(* --- navigation spaces -------------------------------------------------- *)

type space_run = {
  space_query : Queries.query;
  topdown_cost : int;  (** Plain Heuristic-ReducedOpt drill to the target. *)
  refine_cost : int;
      (** Refine-hybrid: one root EXPAND, query-by-navigation refinement at
          the target's component (charged 1), then drill the derived space. *)
  refine_result_size : int;  (** Result-set size after the refinement. *)
  facet_cost : int;
      (** Cost of isolating the qualifier-facet page holding the largest
          share of the target's citations, in the facet space. *)
  facet_pages : int;  (** Non-root nodes of the facet space. *)
}

val refinement_vs_topdown : ?k:int -> Queries.t -> space_run list
(** The navigation-space experiment: for each workload query, compare the
    paper's TOPDOWN cost against (a) a refine-hybrid plan that narrows the
    result set by query-by-navigation, deriving the narrowed descriptor
    space with {!Bionav_core.Nav_tree.restrict} as the engine does, and
    (b) the qualifier-facet route to the target's dominant facet page,
    derived by {!Bionav_core.Nav_space.derive}. *)

(* --- learned vs static ------------------------------------------------- *)

type population = {
  pop_name : string;
  pop_exponent : float;
  pop_depth : [ `Deep | `Shallow | `Any ];
}

val populations : population list
(** Three stochastic-user populations, distributions over navigation
    targets: [focused] (Zipf 1.6 over deep concepts), [shallow] (Zipf 1.3
    over near-root concepts), [diffuse] (near-uniform over the tree). *)

type adaptive_run = {
  population : string;
  trained_sessions : int;
  eval_sessions : int;
  static_mean_cost : float;
  learned_mean_cost : float;
  cost_reduction : float;
}

val learned_vs_static :
  ?k:int ->
  ?train:int ->
  ?eval_walks:int ->
  ?seed:int ->
  ?config:Bionav_adaptive.Adaptive.config ->
  Queries.t ->
  adaptive_run list
(** For each population: record [train] goal-directed sessions (targets
    drawn from the population, transcripts through
    {!Bionav_core.Session_log}), learn a model from them
    ({!Bionav_adaptive.Adaptive.learn}), then compare mean simulated
    navigation cost over [eval_walks] fresh target draws under the static
    paper model vs the learned one. [cost_reduction > 0] means learning
    won; deterministic in [seed]. *)
