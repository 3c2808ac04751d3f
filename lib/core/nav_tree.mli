(** The navigation tree (paper Definitions 1-2).

    Query results are attached to the concepts of the hierarchy (the Initial
    Navigation Tree); the navigation tree is its {e maximum embedding} with
    every empty-result node removed except the root: an empty internal node
    is replaced by its (kept) children, an empty leaf disappears, and
    ancestor/descendant relationships are preserved. Nodes get dense ids
    [0 .. size-1] in preorder, node 0 being the root. *)

type t

val build :
  hierarchy:Bionav_mesh.Hierarchy.t ->
  attachments:(int * Bionav_util.Docset.t) list ->
  total_count:(int -> int) ->
  t
(** [attachments] maps hierarchy concept ids to the result citations
    attached to them (empty sets allowed, they are dropped); [total_count]
    supplies corpus-wide counts [LT]. @raise Invalid_argument on an unknown
    concept id, a duplicate, or [total_count c < |L(c)|]. *)

val of_database : Bionav_store.Database.t -> Bionav_util.Docset.t -> t
(** The on-line construction path: look up the concepts of every result
    citation in the BioNav database and embed. *)

val size : t -> int
val root : t -> int
val parent : t -> int -> int
(** -1 for the root. *)

val children : t -> int -> int list
val depth : t -> int -> int
val is_leaf : t -> int -> bool
val concept_id : t -> int -> int
(** The hierarchy concept behind a navigation node. *)

val label : t -> int -> string
val results : t -> int -> Bionav_util.Docset.t
(** [L(n)]: citations attached directly to the node. Non-empty for every
    node except possibly the root. *)

val result_count : t -> int -> int
val total : t -> int -> int
(** [LT(n)]. *)

val subtree_distinct : t -> int -> int
(** Distinct citations in the subtree rooted at the node — the count a
    static interface shows next to each label (paper Fig. 1). *)

val subtree_results : t -> int -> Bionav_util.Docset.t
(** The distinct citations of the subtree rooted at the node, as a set —
    the result universe a query-by-navigation refinement on the node
    narrows to. Already computed by [build]; O(1). *)

val node_of_concept : t -> int -> int option
(** Navigation node carrying the given hierarchy concept, if any. *)

val distinct_results : t -> int
(** Distinct citations in the whole tree = the query result size. *)

val total_attached : t -> int
(** Σ |L(n)| — the "citations with duplicates" count of Table I. *)

val height : t -> int
val max_width : t -> int

val in_subtree : t -> root:int -> int -> bool
(** O(1) preorder-interval test, root-inclusive. *)

val last_descendant : t -> int -> int
(** The largest id in the node's subtree: the subtree is exactly the id
    interval [\[n, last_descendant n\]]. O(1). *)

val comp_tree_of : t -> root:int -> members:int array -> Comp_tree.t * int array
(** Extracts a component tree from a connected member set containing
    [root], given strictly ascending (so [root] first): returns the
    component tree (tags = navigation node ids) and a fresh copy of the
    index-to-navigation-node mapping. One pass over [members], no sort
    and no hashing. @raise Invalid_argument if [members] is not strictly
    ascending from [root] or not connected at [root]. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering with subtree-distinct counts (the Fig. 1 view). *)
