(** A bounded cache of navigation trees, keyed by query string.

    Paper §VII: the navigation tree "is done once for each user query" —
    the expensive on-line step (attachment lookup over every result citation
    plus the maximum embedding). Exploratory users reissue queries, so the
    navigation subsystem memoizes trees behind an LRU. The cache holds
    query trees only: the spaces a session derives from one (refinements,
    facet spaces) are owned by that tree ({!Nav_tree.derived}) and leave
    with it. *)

type t

val create : ?capacity:int -> build:(string -> Nav_tree.t) -> unit -> t
(** [capacity] defaults to 32. [build] runs the query and constructs the
    tree (typically [esearch] + {!Nav_tree.of_database}). Queries are
    normalized (trimmed, lowercased) before keying. *)

val normalize : string -> string
(** The key normalization {!get} applies: trim, then lowercase. Exposed so
    sibling caches keyed by query (e.g. the prefetch plan cache) agree on
    what "the same query" means. *)

val get : t -> string -> Nav_tree.t
(** Cached or freshly built. *)

val put : t -> string -> Nav_tree.t -> unit
(** Seed the cache with an externally built tree under the normalized
    query key (warm start); replaces any existing entry. Counts neither as
    a hit nor a miss. *)

val fold_trees : t -> (Nav_tree.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over the cached trees in unspecified order without touching
    recency or hit/miss statistics — for observability walks such as the
    engine's docset resident-bytes gauge. *)

val hit_rate : t -> float
(** Hits / lookups since creation or the last {!clear}; 0 before the
    first lookup. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Per-instance counters, zeroed by {!clear} (lookups, and capacity
    evictions by {!get} and {!put}, also feed the process-wide,
    never-reset [bionav_cache_*] metrics, see {!Bionav_util.Metrics}). *)

val clear : t -> unit
(** Drop every entry {e and} reset the per-instance hit/miss/eviction
    counters, so {!hit_rate} reflects the post-clear regime. *)
