(** The reduced tree of supernodes (paper §VI-B).

    Heuristic-ReducedOpt runs the exponential Opt-EdgeCut on a tree of at
    most k supernodes, each supernode being one partition of the real
    component tree. A supernode aggregates its members: results are the
    union of member result lists (duplicates across members collapse, as
    they would within one component), corpus totals are summed, and the
    label/tag come from the partition root. Reduced edges remember the
    original edge between partitions so a cut chosen on the reduced tree can
    be mapped back. *)

type t

val build : Comp_tree.t -> Partition.result -> t
(** Each supernode's results are one {!Bionav_util.Docset.union_many}
    over its members' sets: a bitmap over their span when that is no
    larger than the operands, otherwise a k-way merge, so scattered ids
    cost no more than their number.
    @raise Invalid_argument if the partition does not belong to the tree. *)

val tree : t -> Comp_tree.t
(** The reduced component tree; node 0 is the partition containing the
    original root. *)

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
