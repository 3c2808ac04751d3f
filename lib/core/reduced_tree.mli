(** The reduced tree of supernodes (paper §VI-B).

    Heuristic-ReducedOpt runs the exponential Opt-EdgeCut on a tree of at
    most k supernodes, each supernode being one partition of the real
    component tree. A supernode aggregates its members: its results are
    the union of member result lists (duplicates across members collapse,
    as they would within one component), corpus totals are summed, and the
    label/tag come from the partition root. Reduced edges remember the
    original edge between partitions so a cut chosen on the reduced tree can
    be mapped back.

    The reduced tree carries counts, not sets: the union is never built.
    {!build} takes one pass over the members' result sets, ORing each
    citation's supernode bit into its signature ({!Signature.of_sets}
    with [part] the supernode of each member), and the resulting table
    gives each supernode's [|L(s)|] and every distinct count
    {!Cost_model} reads. *)

type t

val build : Comp_tree.t -> Partition.result -> t
(** O(Σ |L(v)|) over the component plus [k * 2^k] for the table. The
    original tree must hold sets.
    @raise Invalid_argument if the partition does not belong to the tree
    or has more than {!Signature.max_parts} partitions. *)

val tree : t -> Comp_tree.t
(** The reduced component tree, counts-only (see {!Comp_tree}); node 0
    is the partition containing the original root. *)

val original : t -> Comp_tree.t
val size : t -> int
(** Number of supernodes. *)

val partition_root : t -> int -> int
(** [partition_root t s]: the original node that roots supernode [s]. *)

val members : t -> int -> int list
(** Original nodes aggregated by supernode [s]. *)

val map_cut_children : t -> int list -> int list
(** Translate a cut on the reduced tree (supernode indices, root excluded)
    into cut children of the original tree: each supernode maps to its
    partition root, whose incoming original edge is the cut edge. The image
    of a valid reduced cut is a valid original cut. *)
