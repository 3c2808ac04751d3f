(** The TOPDOWN navigation cost model (paper §III) evaluated over
    sub-components of a component tree.

    During EdgeCut optimization, the algorithm reasons about components that
    are not full subtrees: a subtree minus the full subtrees removed by
    earlier cuts. With component trees capped at {!max_size} nodes (the
    optimal algorithm is exponential; the heuristic feeds it reduced trees
    of ≤ k supernodes), a component is represented as a bitmask over node
    indices. This module owns that representation and the probability /
    cost formulas on it; {!Opt_edgecut} adds the minimizing recursion.

    Costs are {e conditional on the user exploring the component}: the
    EXPLORE probabilities enter as branch weights when an EdgeCut splits a
    component, not as a compounding discount —

    {v
      cost(C) = (1 - P_x(C)) * |L(C)|
              + P_x(C) * (expand_cost + cut_term(C))
      cut_term(C) = min over valid cuts V of
          Σ_{v ∈ V} 1                                  (examine new labels)
        + Σ_{C' ∈ comps(C,V)} P(C'|C) * cost(C')       (continue into one)
      P(C'|C) = P_e(C') / P_e(C)
    v}

    After an EXPAND the user examines every newly revealed label with
    certainty, then continues into exactly one resulting component, with
    probability proportional to its EXPLORE mass (the paper's selectivity
    signal). Conditioning keeps the examine-now vs. examine-later
    comparison honest: a pure expected-cost reading would discount every
    deferred examination by the absolute [P_e] of the upper component and
    always prefer revealing a single concept per EXPAND, which contradicts
    the multi-concept reveals of the paper's Figs. 2 and 11. A component
    that cannot be cut and will not be expanded costs [|L(C)|]
    (SHOWRESULTS). *)

type t

val create : ?model:Probability.model -> ?norm:float -> Comp_tree.t -> t
(** [model] defaults to {!Probability.default_model} (the paper's static
    estimates); [norm] defaults to the model's [normalizer] of the tree —
    appropriate when the tree is the whole structure being expanded.

    The table behind {!distinct} is the tree's {!Comp_tree.signature}:
    a reduced tree carries the one its builder counted in its single pass
    over the component, and [create] only refers to it; a tree that
    holds sets gets one pass over them, each node its own part. Either
    way no set is unioned or merged, and [create] itself allocates only
    the [2^m]-entry {!p_expand} memo.
    @raise Invalid_argument when the tree has more than {!max_size}
    nodes. *)

val tree : t -> Comp_tree.t

val model : t -> Probability.model

val params : t -> Probability.params
(** The model's parameter record ([model.params]). *)

val norm : t -> float

val full_mask : t -> int
(** All nodes of the tree. The tree size must be ≤ {!max_size}. *)

val max_size : int
(** 16, the same bound as {!Opt_edgecut.max_size}: [create] rejects
    bigger trees, whose [2^m]-entry tables would not fit. *)

val members : t -> int -> int list
(** Node indices of a mask, ascending. *)

val mask_of : int list -> int
(** @raise Invalid_argument on a node index outside [\[0, max_size)] —
    such an index would silently shift out of the mask. *)

val root_of : t -> int -> int
(** Shallowest member — the component root. The mask must be non-empty and
    connected for this to be meaningful. *)

val subtree_mask : t -> mask:int -> int -> int
(** [subtree_mask t ~mask v]: members of [mask] in the subtree of [v],
    walking only children that are themselves in [mask]. *)

val distinct : t -> int -> int
(** [|L(C)|]: the distinct result count of a mask's members. O(1), one
    read of the signature table: [|R|] minus the results held only by
    nodes outside the mask. *)

val p_explore : t -> int -> float
val p_expand : t -> int -> float

val underlying : t -> int -> int
(** Total number of underlying hierarchy concepts behind a mask's members
    (Σ multiplicity). *)

val cost_leaf : t -> int -> float
(** [|L(C)|]: the conditional cost when no expansion can or will happen
    ([P_x = 0] — the user lists the results). *)

val cost_unstructured : t -> int -> float
(** Expected cost of a component that cannot be cut {e in this tree} (a
    single node), priced with the future-drilldown surrogate when the node
    stands for several underlying concepts: a single supernode of a reduced
    tree is still expandable in reality, and charging it a full SHOWRESULTS
    would bias the optimizer against revealing anything (see
    {!Probability.params.future_fanout}). Reduces to [cost_leaf] when the
    node is a genuine single concept. *)

val cost : t -> mask:int -> cut_term:float -> float
(** The full formula above, [cut_term] supplied by the caller. *)

val branch_probability : t -> parent_mask:int -> branch_mask:int -> float
(** [P(C'|C) = P_e(C') / P_e(C)], clamped to [0, 1]; 0 when the parent has
    no explore mass. *)

val expand_cost : t -> float
