(** Immutable, epoch-versioned views of a navigation session.

    The read path of DESIGN.md §12: at the end of every mutating
    navigation action (EXPAND, SHOWRESULTS, BACKTRACK, and the space
    changes) the engine {!capture}s the session's visible tree into a
    self-contained snapshot and keeps it as the session's current view.
    Readers (HTML rendering, result paging) work entirely off a snapshot;
    a reader holding epoch [e] keeps a consistent view even as the
    session advances past it.

    Consistency guarantees of one snapshot:
    - every visible node has a {!vnode}, and the {!vnode.members} of all
      visible nodes partition the navigation tree's node set;
    - {!vnode.distinct} equals the cardinality of {!vnode.results};
    - {!vnode.parent} / {!vnode.children} describe one coherent
      Definition-5 embedding (children are relevance-ranked);
    - all docsets live in a single private {e frozen} arena
      ({!Bionav_util.Docset_arena.freeze}), so any attempted mutation
      raises {!Bionav_util.Docset_arena.Frozen}.

    The snapshot also pins [nav], the underlying navigation tree, whose
    post-build state is immutable except for its arena's memo tables.

    Capture does no set algebra: the active tree maintains every
    component's members, results, weight and visible links across cuts,
    so a capture imports the visible components' results into the fresh
    arena (sharing their immutable payload), ranks each child list by
    the cached weights and reads the rest — O(visible nodes) plus the
    ranking. *)

type vnode = {
  id : int;  (** Navigation node id (dense, preorder). *)
  label : string;
  distinct : int;  (** Distinct citations of the component. *)
  expandable : bool;  (** Component has ≥ 2 nodes (the ">>>" affordance). *)
  parent : int;  (** Visible parent in the embedding; -1 for the root. *)
  children : int list;  (** Visible children, relevance-ranked. *)
  members : int array;
      (** Component members, ascending navigation ids. Shared with the
          active tree, which never mutates it; readers must not either. *)
  results : Bionav_util.Docset.t;
      (** Distinct citations of the component, in the snapshot arena. *)
}

type t

val capture :
  epoch:int ->
  query:string ->
  ?space:string ->
  ?refine_depth:int ->
  Bionav_core.Navigation.t ->
  t
(** Build a snapshot of the session's current visible tree. Must be
    called between mutations of the session (the engine captures at the
    end of each mutating operation): capture reads the live active
    tree, which an unfinished cut would leave half-updated. The returned
    snapshot's private arena is frozen before return. [space] (default
    ["descriptor"]) is the identity of the navigation space the session's
    top frame was derived along; [refine_depth] (default 0) the depth of
    its refinement stack. *)

val epoch : t -> int
val query : t -> string

val space : t -> string
(** Identity of the navigation space this snapshot was captured from
    (e.g. ["descriptor"], ["descriptor>refine:42"]). A reader holding a
    snapshot never observes a mixed-space tree: epoch {e and} space
    advance together. *)

val refine_depth : t -> int
(** Depth of the session's refinement stack at capture (0 = base space). *)

val model_fingerprint : t -> string
(** Fingerprint of the probability model the session's strategy was using
    at capture — the plan-cache key component that keeps a plan computed
    under one model from being served under another. *)

val stats : t -> Bionav_core.Navigation.stats
(** Cost accounting as of the capture. *)

val distinct_results : t -> int
(** The query result size (distinct citations in the whole tree). *)

val root : t -> int

val visible : t -> int list
(** Visible navigation nodes in preorder (the root first). *)

val find : t -> int -> vnode option
val get : t -> int -> vnode
(** @raise Invalid_argument if the node was not visible at capture. *)

val mem : t -> int -> bool
val iter : t -> (vnode -> unit) -> unit
val node_count : t -> int

val arena : t -> Bionav_util.Docset_arena.t
(** The snapshot's private arena; always frozen. *)

val nav : t -> Bionav_core.Nav_tree.t
(** The underlying navigation tree (shared with the live session). *)
