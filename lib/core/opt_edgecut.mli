(** Opt-EdgeCut (paper §VI-A): exact minimization of the expected TOPDOWN
    navigation cost.

    The algorithm enumerates, for every reachable component (a subtree of
    the input minus full subtrees removed by cuts), every valid EdgeCut —
    a non-empty antichain of nodes below the component root — and memoizes
    the minimum expected cost per component. This is exponential
    (the paper proves the underlying decision problem NP-complete), so the
    input is guarded to at most {!max_size} nodes; in the full system it
    only ever runs on reduced trees of ≤ k ≈ 10 supernodes. *)

type solution = {
  cost : float;  (** Σ over returned roots of examine + explore cost. *)
  cut_children : int list;
      (** Roots of the lower component subtrees, as component-tree node
          indices (never the root). Non-empty. *)
}

val max_size : int
(** 16, the same bound as {!Cost_model.max_size}: practical for
    exhaustive cut enumeration. *)

val solve :
  ?model:Probability.model -> ?norm:float -> Comp_tree.t -> solution
(** Best first EdgeCut for an EXPAND on the whole tree: minimizes
    [cost(upper) + Σ_{v ∈ cut} (1 + cost(C_v))], under [model] (default
    {!Probability.default_model}). The tree must have ≥ 2 nodes and
    ≤ {!max_size} nodes. @raise Invalid_argument otherwise. *)

val expected_cost :
  ?model:Probability.model -> ?norm:float -> Comp_tree.t -> float
(** The minimum expected navigation cost of the whole tree under the cost
    model (the quantity Opt-EdgeCut computes bottom-up). Defined for any
    size ≤ {!max_size}, including singletons. *)

type state
(** Memo tables (per-component EXPLORE probability, minimum cost and best
    cut) attached to one cost-model context. Because costs for all
    sub-components are memoized, Opt-EdgeCut effectively runs once per
    component and later expansions of the pieces are lookups — the property
    the paper notes in §VI-B. The tables are dense arrays indexed by
    component mask, sized by the context's tree: [2^size] entries each. *)

val init : Cost_model.t -> state
(** Tables for the context's tree. @raise Invalid_argument when the tree
    has more than {!max_size} nodes. *)

val context : state -> Cost_model.t

(** {2 Component masks}

    The functions below take a component of the context's tree as a mask
    (bit [i] = node [i]). A valid mask is non-empty, has no bit at or above
    the tree's size (so it is positive and within
    {!Cost_model.full_mask}), and is connected: every member except the
    shallowest has its parent in the mask. Anything else raises
    [Invalid_argument] naming the function and the mask. *)

val solve_mask : state -> int -> solution
(** Best cut of a valid mask with ≥ 2 members. @raise Invalid_argument on
    an invalid mask or a single-member one. *)

val cost_mask : state -> int -> float
(** Expected cost of the component of a valid mask.
    @raise Invalid_argument on an invalid mask. *)

val subtree_mask : state -> mask:int -> int -> int
(** [subtree_mask st ~mask v]: the members of [mask] in [v]'s subtree —
    what cutting above [v] removes from the component. Agrees with
    {!Cost_model.subtree_mask} on valid masks.
    @raise Invalid_argument on an invalid mask or a [v] not in it. *)

val count_valid_cuts : Comp_tree.t -> int
(** Number of valid EdgeCuts of the full tree (diagnostic; used by tests and
    by the complexity demonstration bench). *)
