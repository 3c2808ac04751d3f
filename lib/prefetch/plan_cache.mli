(** Memoized EdgeCut plans: the paper's §VI-B reuse remark lifted from one
    session to the whole process.

    A plan is the cut the Heuristic strategy would compute for a given
    component; the component is identified by (normalized query, the
    probability-model fingerprint that priced the cut, visible root, the
    exact member set [I(n)]). Two sessions of the same query {e and model}
    that expand the same way reach byte-identical components, so a cut
    computed once — in the foreground or warmed from a snapshot — serves
    every later EXPAND of that component at O(1). The fingerprint (see
    {!Bionav_core.Navigation.model_fingerprint}) keeps the cache honest
    across model updates: a cut optimized under yesterday's probabilities
    is a {e stale} plan for today's learned model, and a changed
    fingerprint makes it unreachable instead of served.

    The member set is keyed by its content fingerprint but {e verified}
    on lookup against the stored member list, so hash collisions can only
    miss, never serve a wrong plan — the served cut is always byte-identical to
    what a fresh computation over the same component would feed the active
    tree. Backed by {!Bionav_util.Lru}; instrumented with the
    [bionav_prefetch_plan_*] metrics. *)

type t

val default_capacity : int
(** 512 plans. *)

val create : ?capacity:int -> unit -> t

val find :
  t ->
  query:string ->
  fingerprint:string ->
  root:int ->
  members:Bionav_util.Docset.t ->
  int list option
(** The memoized cut for the component of [root] whose member navigation
    ids are exactly [members], refreshing LRU recency; [None] on miss or
    fingerprint collision. Counts into hits/misses. *)

val store :
  t ->
  query:string ->
  fingerprint:string ->
  root:int ->
  members:Bionav_util.Docset.t ->
  cut:int list ->
  unit
(** Memoize a computed cut (ignored when [cut] is empty); replaces any
    entry under the same key, evicting LRU-style when full. *)

val length : t -> int
val hits : t -> int
val misses : t -> int
(** Per-instance counters (the process-wide [bionav_prefetch_plan_*]
    metrics aggregate across instances and never reset). *)

val clear : t -> unit
(** Drop every plan and zero the per-instance counters. *)

val plan_source :
  t -> query:string -> fingerprint:string -> Bionav_core.Navigation.plan_source
(** The {!Bionav_core.Navigation.plan_source} wiring a session of [query]
    running under the model identified by [fingerprint] to this cache:
    [find_plan] serves memoized cuts, [store_plan] feeds foreground
    computations back in. *)
