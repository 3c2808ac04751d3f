(** Heuristic-ReducedOpt (paper §VI-B): the practical best-EdgeCut
    algorithm.

    Given a component tree of arbitrary size:
    + partition it into at most [k] connected parts (weights = attached
      citation counts, threshold grown from [total/k] until ≤ k parts);
    + build the reduced tree of supernodes;
    + run the exact {!Opt_edgecut} on the reduced tree;
    + map the chosen cut back to edges of the original component tree.

    Trees that already fit within [k] nodes skip the reduction and get the
    optimal cut directly. The paper operates with [k = 10]. *)

type report = {
  cut_children : int list;
      (** Cut children in the original component tree (indices ≥ 1);
          non-empty whenever the tree has ≥ 2 nodes. *)
  reduced_size : int;  (** Supernodes fed to Opt-EdgeCut. *)
  reduced_cost : float;  (** Opt-EdgeCut's expected-cost objective value. *)
  elapsed_ms : float;  (** Wall-clock time of the whole computation. *)
}

val default_k : int
(** 10, as in the paper's experiments. *)

val best_cut :
  ?model:Probability.model -> ?k:int -> Comp_tree.t -> report
(** Best cut under [model] (default {!Probability.default_model}).
    @raise Invalid_argument if the tree has < 2 nodes or [k < 2]. *)

type plan
(** The solver state behind a cut: the (possibly reduced) tree, its cost
    context and Opt-EdgeCut memo tables, and the mask of the component the
    upper subtree still covers. Paper §VI-B: "once Opt-EdgeCut is executed
    for [T], the costs (and optimal EdgeCuts) for all possible [I(n)]s are
    also computed and hence there is no need to call the algorithm again
    for subsequent expansions" — a plan is exactly that reuse handle for
    follow-up expansions of the {e upper} component (lower components
    collapse to single supernodes, whose internal structure the reduced
    tree no longer sees, so they take a fresh plan). *)

val best_cut_with_plan :
  ?model:Probability.model -> ?k:int -> ?reduction:Reduced_tree.t -> Comp_tree.t ->
  report * plan
(** Like {!best_cut} but also returns the reuse handle. The plan's mask is
    already advanced past the returned cut. @raise Invalid_argument as
    {!best_cut}; additionally the degenerate-partition fallback yields a
    plan that immediately reports itself exhausted.

    [reduction] is steps 1–2's result ({!reduction}) from an earlier
    solve of this very tree with this [k], such as the whole tree's, kept
    in the tree ({!Nav_tree.root_reduction}): the solve skips them, and
    [elapsed_ms] and [bionav_heuristic_cut_ms] exclude them.
    @raise Invalid_argument if it is not this tree's for [k]. *)

val reduction : plan -> Reduced_tree.t option
(** The plan's reduced tree, [None] when the tree fit within [k]. *)

val plan_usable : plan -> bool
(** The plan's upper component still covers at least two (super)nodes. *)

val original_tree : plan -> Comp_tree.t
(** The component tree the plan was created for; its tags resolve cut
    children back to navigation nodes. *)

val replan : plan -> (report * plan) option
(** Best cut for the current upper component using the memoized solver
    state — no partitioning, no re-reduction; [None] when the plan is
    exhausted ({!plan_usable} is false). The report's cut children are
    indices of the {e original} component tree, as in {!best_cut}. *)
