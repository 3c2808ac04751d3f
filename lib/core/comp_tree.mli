(** Component subtrees: the tree-shaped value the EdgeCut algorithms operate
    on.

    A component subtree (paper §II) is a connected piece of the navigation
    tree — the invisible subtree [I(n)] behind a visible node. Both
    [Opt-EdgeCut] and [Heuristic-ReducedOpt] take one as input, and the
    reduced tree of supernodes is itself one. Nodes are indexed densely
    [0 .. size-1] with node 0 the component root and parents preceding
    children; each node carries its result list [L], its corpus-wide count
    [LT], a display label, and an opaque [tag] linking it back to whatever it
    stands for (a navigation-tree node, or a partition root).

    A tree holds either every node's result set or, when it is a reduced
    tree, only the {!Signature} of its supernodes: their distinct counts
    over every subset, from which [|L|] of each node follows. Such a
    {e counts-only} tree has no sets to return ({!results} raises).

    A tree is lean: {!make} adopts its arrays without copying them (the
    caller must not mutate them afterwards), can read them through an
    index map instead of taking per-node copies, stores all children in
    one flat array ({!child_index}), and stores nothing for
    an optional argument left out — a plain node's defaults are derived
    when read. *)

type t

val make :
  parent:int array ->
  ?ids:int array ->
  ?results:Bionav_util.Docset.t array ->
  ?signature:Signature.t ->
  totals:int array ->
  ?labels:string array ->
  ?tags:int array ->
  ?concepts:int array ->
  ?multiplicity:int array ->
  ?sub_weights:float array array ->
  ?sub_concepts:int array array ->
  unit ->
  t
(** [parent.(0) = -1] and [0 <= parent.(i) < i] for [i > 0]. Exactly one
    of [results] (one set per node) and [signature] (one part per node:
    a counts-only tree) is given. [totals.(i)] must be at least [|L(i)|]
    and positive whenever the node has results. [tags] defaults to the
    identity.

    With [ids], the tree is a {e view}: node [i]'s entries in [results],
    [totals], [labels] and [concepts] are at index [ids.(i)] of those
    arrays, which are shared with whatever the component was cut from
    (a navigation tree's per-node arrays) instead of copied.
    @raise Invalid_argument on violations. *)

val size : t -> int
val root : t -> int
val parent : t -> int -> int
val children : t -> int -> int list
(** Ascending. *)

val child_index : t -> int array * int array
(** Every node's children as the two stored arrays [(start, kids)]: the
    children of [i] are [kids.(start.(i)) .. kids.(start.(i + 1) - 1)],
    ascending. Shared, never mutate them. For passes over the whole tree
    that should neither allocate nor call per child. *)

val is_leaf : t -> int -> bool
val depth : t -> int -> int

val results : t -> int -> Bionav_util.Docset.t
(** [L(i)]: results attached directly to node [i].
    @raise Invalid_argument on a counts-only tree. *)

val result_count : t -> int -> int
(** [|L(i)|]; a counts-only tree reads it off its signature. *)

val total : t -> int -> int
(** [LT(i)]: corpus-wide citation count of the concept behind [i]. *)

val label : t -> int -> string
val tag : t -> int -> int

val concept : t -> int -> int
(** The stable hierarchy concept id behind node [i], or [-1] when unknown
    (synthetic trees, supernodes aggregating several concepts report their
    partition root's concept). Stable across navigation-tree rebuilds —
    the join key adaptive probability models use to look up per-concept
    evidence. Defaults to [-1]. *)

val multiplicity : t -> int -> int
(** Number of underlying hierarchy concepts this node stands for: 1 for a
    plain navigation-tree node, the member count for a supernode of a
    reduced tree. Drives the EXPAND probability of components — a single
    supernode is still expandable when it aggregates many concepts. *)

val sub_weights : t -> int -> float array
(** Per-underlying-concept citation masses (the [|L|] values of the
    aggregated concepts); the entropy term of the EXPAND probability is
    computed over these. Defaults to [[| L(node) |]], allocated on each
    read. *)

val iter_sub_weights : t -> int -> (float -> unit) -> unit
(** Applies the function to each of {!sub_weights}, allocating nothing. *)

val sub_concepts : t -> int -> int array
(** Hierarchy concept ids parallel to {!sub_weights} — one per underlying
    concept, [-1] when unknown. Adaptive models aggregate per-concept
    evidence over these. Defaults to [concept] repeated to the
    [sub_weights] width. @raise Invalid_argument from [make] when lengths
    diverge from [sub_weights]. *)

val signature : t -> Signature.t
(** The distinct-count table over the nodes: a counts-only tree's own, or
    one pass over the nodes' sets (each node its own part).
    @raise Invalid_argument when the tree has more than
    {!Signature.max_parts} nodes and holds sets. *)

type group = {
  members : int array array;  (** Per part, its nodes, ascending. *)
  member_weights : float array array;  (** Their [|L|], parallel to [members]. *)
  member_concepts : int array array;  (** Their {!concept}s, parallel to [members]. *)
  part_totals : int array;  (** Per part, the sum of its nodes' [LT]. *)
  signature : Signature.t;  (** Distinct counts over every set of parts. *)
}

val group : t -> part:int array -> parts:int -> group
(** Aggregates the nodes into [parts] parts, node [v] into [part.(v)]:
    one {!Signature.of_sets} pass over the nodes' result sets, then one
    pass over the nodes. What a reduced tree's supernodes are made of.
    @raise Invalid_argument on a counts-only tree, or a [part] of the
    wrong length or outside [\[0, parts)]. *)

val subtree_nodes : t -> int -> int list
(** Preorder, argument included. *)

val all_results : t -> Bionav_util.Docset.t
(** Distinct results over the whole component.
    @raise Invalid_argument on a counts-only tree, as do the next two. *)

val distinct_of_nodes : t -> int list -> Bionav_util.Docset.t
(** Distinct results over an arbitrary node subset. *)

val duplicate_count : t -> int
(** Total attached minus distinct over the whole component: the quantity the
    TED objective maximizes within components. *)

val singleton :
  results:Bionav_util.Docset.t ->
  total:int ->
  ?label:string ->
  ?tag:int ->
  ?concept:int ->
  unit ->
  t

val pp : Format.formatter -> t -> unit
(** Indented tree rendering with counts (diagnostic). *)
