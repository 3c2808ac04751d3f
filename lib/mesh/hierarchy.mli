(** The concept hierarchy (paper Definition 1): a labelled rooted tree of
    concepts. Node 0 is always the root. Parent/children links, depths and
    subtree sizes are precomputed, so the navigation algorithms get O(1)
    structural queries over a ~48k-node tree. *)

type t

val build : Concept.t array -> parent:int array -> t
(** [build concepts ~parent] constructs the hierarchy. Requirements, checked
    eagerly: [concepts.(i).id = i]; [parent.(0) = -1]; [0 <= parent.(i) < i]
    for [i > 0] (parents precede children, which guarantees acyclicity and a
    single root); tree numbers consistent with the parent links.
    @raise Invalid_argument when a requirement fails. *)

val of_parents : ?labels:(int -> string) -> int array -> t
(** Convenience for tests and synthetic fixtures: builds concepts with
    generated tree numbers from a parent array alone. [labels] defaults to
    ["node-<i>"]. *)

val size : t -> int
(** Number of nodes, root included. *)

val root : t -> int
val concept : t -> int -> Concept.t
val label : t -> int -> string
val parent : t -> int -> int
(** -1 for the root. *)

val children : t -> int -> int list
val depth : t -> int -> int
val is_leaf : t -> int -> bool
val subtree_size : t -> int -> int
(** Number of nodes in the subtree rooted at the argument (itself included). *)

val preorder_rank : t -> int -> int
(** The node's position in the depth-first preorder that visits children
    in ascending id order (the root is 0). Ids are parents-first but not
    preorder; ranks are. Precomputed, O(1). *)

val last_descendant_rank : t -> int -> int
(** The largest preorder rank in the node's subtree: the subtree is
    exactly the rank interval [\[preorder_rank n, last_descendant_rank n\]].
    O(1). *)

val height : t -> int
(** Maximum depth over all nodes (a single-node tree has height 0); O(1). *)

val max_width : t -> int
(** Maximum number of nodes at any single depth; O(1). *)

val ancestors : t -> int -> int list
(** Strict ancestors, nearest first; [ancestors t root = []]. *)

val path_from_root : t -> int -> int list
(** Root-to-node path, both endpoints included. *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor t a b] iff [a] is a strict ancestor of [b]; O(1) on preorder ranks. *)

val descendants : t -> int -> int list
(** All strict descendants in preorder. *)

val iter_subtree : t -> int -> (int -> unit) -> unit
(** Preorder visit of the subtree rooted at the argument, root included. *)

val fold_postorder : t -> int -> (int -> 'a list -> 'a) -> 'a
(** [fold_postorder t n f] combines each node with the already-folded values
    of its children (left to right). *)

val find_by_label : t -> string -> int option
(** First node (smallest id) with the exact label. *)

val find_by_tree_number : t -> Tree_number.t -> int option

val nodes_at_depth : t -> int -> int list
