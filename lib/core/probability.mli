(** Estimation of the navigation probabilities (paper §IV).

    Two quantities drive the cost model, both defined on component subtrees:

    - {b EXPLORE} [P_e]: how likely the user is to descend into a component.
      Proportional to the component's query selectivity
      [Σ |L(n)| / |LT(n)|] (an IDF-like signal: concepts frequent in the
      query result but rare corpus-wide are discriminating), normalized by
      the same sum over the whole tree being expanded.
    - {b EXPAND} [P_x]: how likely the user is to keep drilling down rather
      than list results. 0 when the component stands for a single concept;
      1 above an upper result-count threshold; 0 below a lower threshold;
      otherwise the normalized entropy of the citation distribution over
      the component's concepts (duplicates can push raw entropy above the
      no-duplicate uniform maximum, hence clamping). The paper operates
      with thresholds 50 and 10.

    On reduced trees a node is a supernode standing for many concepts, so
    both "the component's concepts" and the "singleton" test refer to the
    {e underlying} concepts ({!Comp_tree.multiplicity} /
    {!Comp_tree.sub_weights}), not the supernode count. *)

type params = {
  upper_threshold : int;  (** |L| above this forces [P_x] = 1 (paper: 50). *)
  lower_threshold : int;  (** |L| below this forces [P_x] = 0 (paper: 10). *)
  expand_cost : float;
      (** Model cost charged per future EXPAND action. The paper notes that
          raising it makes each EXPAND reveal more concepts (§III); under
          this implementation's conditional cost recursion (see
          {!Cost_model}) the default 16 reproduces the paper's observed
          reveal widths (3-9 concepts per EXPAND) and cost-improvement
          profile. The {e accounting} cost of an EXPAND in the navigation
          metric stays 1 (see {!Navigation}). *)
  future_fanout : int;
      (** Assumed reveal width of future expansions when estimating the
          navigation cost of an {e unstructured} component (a single
          supernode of a reduced tree, whose internal tree shape has been
          abstracted away): exploring [m] hidden concepts is priced as a
          balanced [future_fanout]-ary drill-down,
          [(future_fanout + 1) · log_fanout m]. Defaults to the reduction
          budget k = 10. *)
}

val default_params : params
(** [{ upper_threshold = 50; lower_threshold = 10; expand_cost = 16.0;
      future_fanout = 10 }] *)

val validate_params : params -> unit
(** Reject parameter records whose formulas would produce silent nonsense:
    requires [upper_threshold >= lower_threshold >= 0], [expand_cost > 0]
    and [future_fanout >= 2]. @raise Invalid_argument naming the offending
    field. Called by every {!model} constructor. *)

val params_fingerprint : params -> string
(** Stable textual identity of a parameter record
    (["upper/lower/expand_cost/fanout"]); the building block of model
    fingerprints. *)

val explore_weight : Comp_tree.t -> int -> float
(** [|L(i)| / |LT(i)|] for one node; 0 when the node has no results. *)

val normalizer : Comp_tree.t -> float
(** Sum of [explore_weight] over all nodes of the tree, floored at a small
    epsilon so division is always defined. *)

val explore : norm:float -> Comp_tree.t -> int list -> float
(** [explore ~norm t members]: the component's EXPLORE probability —
    member weights summed, divided by [norm], clamped to [0, 1]. *)

val expand :
  params -> Comp_tree.t -> members:int list -> distinct:int -> float
(** [expand params t ~members ~distinct]: the component's EXPAND
    probability; [distinct] is the component's distinct result count. The
    entropy runs over the members' underlying concept weights. *)

val future_drilldown_cost : params -> int -> float
(** [future_drilldown_cost params m]: the surrogate navigation cost of
    drilling into [m] hidden concepts ([0.] for [m <= 1]). *)

(** {2 Pluggable models}

    The free functions above are the paper's fixed §IV estimates. A
    {!model} packages the two probability estimators behind a first-class
    value so alternative estimators (e.g. the evidence-smoothed model of
    [Bionav_adaptive]) plug into {!Cost_model}, {!Opt_edgecut},
    {!Heuristic} and {!Navigation} without those layers knowing how the
    probabilities are produced. The [fingerprint] is the model's {e cache
    identity}: two models with the same fingerprint must compute identical
    probabilities, because memoized EdgeCut plans are keyed by it — a model
    update changes the fingerprint and thereby invalidates every stale
    plan instead of serving it. *)

type model = {
  params : params;  (** Thresholds and cost constants the estimators use. *)
  fingerprint : string;
      (** Stable identity for plan/cache keying; see above. *)
  normalizer : Comp_tree.t -> float;
      (** This model's EXPLORE denominator over a whole tree (the model's
          member weights summed, epsilon-floored). *)
  explore : norm:float -> Comp_tree.t -> int list -> float;
      (** EXPLORE probability of a component, clamped to [0, 1]. *)
  expand : Comp_tree.t -> members:int list -> distinct:int -> float;
      (** EXPAND probability of a component.
          @raise Invalid_argument on empty [members]. *)
}

val make_model :
  params:params ->
  fingerprint:string ->
  normalizer:(Comp_tree.t -> float) ->
  explore:(norm:float -> Comp_tree.t -> int list -> float) ->
  expand:(Comp_tree.t -> members:int list -> distinct:int -> float) ->
  model
(** Validates [params] (see {!validate_params}) and packages the record. *)

val static : ?params:params -> unit -> model
(** The paper's §IV model as a [model] value: {!normalizer}, {!explore} and
    {!expand} verbatim, fingerprint ["static/<params>"]. @raise
    Invalid_argument on invalid [params]. *)

val default_model : model
(** [static ()] — the model every strategy uses unless told otherwise. *)

val facet_model : model
(** The static model over cost-model terms tuned for qualifier facet
    pages (wide, flat, cheap to re-cut): higher thresholds, lower expand
    cost, fanout = the qualifier table width — the default model for the
    (descriptor × qualifier) facet dimension. *)

val model_of : ?params:params -> ?model:model -> unit -> model
(** Resolution helper for APIs that accept both spellings: an explicit
    [model] wins, bare [params] wrap into {!static}, neither means
    {!default_model}. *)
