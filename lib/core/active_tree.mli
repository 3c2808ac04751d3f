(** The active tree (paper Definitions 4-5): the navigation tree annotated
    with component subtrees, closed under the EdgeCut operation.

    Every navigation-tree node belongs to exactly one component; every
    component is a connected piece of the navigation tree rooted at a
    {e visible} node. Initially one component holds everything, rooted at
    the navigation root. Applying an EdgeCut to a component detaches the
    full subtrees under the cut children as new (visible-rooted) lower
    components; the remainder stays with the upper root. The visualization
    (Definition 5) is the embedded tree of visible nodes with each node
    showing the distinct citation count of its component.

    Each visible node carries its component's state, fixed when the
    component is formed: the members (an ascending array), the results
    and their distinct count, the relevance weight and the visible
    children. Only {!create}, {!apply_cut} and {!backtrack} change it, and
    a cut recomputes only the components it splits: the accessors below
    are O(1) reads, and a component with no visible descendant takes its
    results from {!Nav_tree.subtree_results} without any union. *)

type t

val create : Nav_tree.t -> t
(** One component containing every node, rooted at the navigation root;
    only the root is visible. *)

val nav : t -> Nav_tree.t

val is_visible : t -> int -> bool
val visible : t -> int list
(** Visible navigation nodes in preorder (the root is first). *)

val component_root_of : t -> int -> int
(** The visible root of the component containing the given node. *)

val component : t -> int -> int list
(** Members (ascending navigation ids) of the component rooted at a visible
    node. @raise Invalid_argument if the node is not visible (as do all the
    [component_*] accessors). *)

val component_members : t -> int -> int array
(** {!component} as the cached array itself: shared, never mutate it. *)

val component_distinct : t -> int -> int
(** Distinct citations attached to the component — the count displayed next
    to the visible node (paper Fig. 2 shows it shrinking as concepts are
    revealed). *)

val component_results : t -> int -> Bionav_util.Docset.t
(** The union of the members' results. *)

val component_weight : t -> int -> float
(** The component's explore mass [Σ |L| / |LT|] over its members, summed
    in ascending member order (see {!Relevance}). *)

val component_key : t -> int -> Bionav_util.Docset.t * int
(** The member {e navigation ids} as a set, with its
    {!Bionav_util.Docset.fingerprint}: the plan-cache key of the
    component. Built on first use and kept until a cut or backtrack
    changes the component, so repeated lookups hash nothing. *)

val is_expandable : t -> int -> bool
(** Visible with a component of ≥ 2 nodes (the ">>>" affordance). *)

val comp_tree : t -> int -> Comp_tree.t * int array
(** The component as a {!Comp_tree.t} plus the index→navigation-node map
    (the tree's tags: {!component_members} itself, shared, never mutate
    it), extracted in one pass over the ascending members. *)

val apply_cut : t -> root:int -> cut_children:int list -> int list
(** Perform the EdgeCut: [cut_children] are navigation nodes, members of the
    component of [root], none equal to [root], pairwise
    non-ancestor-related. Returns the newly visible nodes (the lower roots,
    ascending). The operation is recorded for {!backtrack}.
    @raise Invalid_argument on an invalid cut. *)

val expand_static : t -> int -> int list
(** The static baseline's EXPAND: cut at every child of [root] inside its
    component (reveal all children, GoPubMed-style). Returns newly visible
    nodes; empty for a singleton component. *)

val backtrack : t -> bool
(** Undo the most recent cut (paper's BACKTRACK action); [false] when there
    is nothing to undo. *)

val visible_parent : t -> int -> int
(** Parent in the visualization: nearest visible strict ancestor; -1 for
    the root. O(1). *)

val visible_children : t -> int -> int list
(** Children of a visible node in the visualization, ascending.
    @raise Invalid_argument if the node is not visible. *)

val render : t -> string
(** The Definition 5 visualization: indented visible tree, component
    distinct counts, ">>>" markers on expandable nodes. *)
