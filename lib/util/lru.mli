(** A bounded least-recently-used cache. Every operation but {!fold} and
    {!clear} is O(1) expected, eviction included: a doubly linked recency
    list runs through the table's nodes, so a miss never scans the
    resident entries. Its holders: [Nav_cache] (navigation trees, 32 by
    default), [Plan_cache] (EXPAND plans, 512) and the segment store's
    [Block_cache] (decoded blocks of 1 KiB: 4,096 in the default 4 MiB,
    about 2,100 on perfbench's [refine]). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Requires [capacity >= 1]. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Refreshes the entry's recency on a hit. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does not refresh recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts or replaces; evicts the least recently used entry when full.
    The entry becomes the most recently used one. *)

val remove : ('k, 'v) t -> 'k -> unit
val clear : ('k, 'v) t -> unit

val fold : ('k, 'v) t -> ('v -> 'a -> 'a) -> 'a -> 'a
(** Fold over the cached values in unspecified order, without touching
    recency or hit/miss accounting (observability walks). Structural
    mutation from inside the fold callback — {!add}, {!remove},
    {!clear} — raises [Invalid_argument] rather than leaving iteration
    behavior unspecified; non-structural reads ({!find}, {!mem})
    remain allowed. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
(** Counted by {!find} only. *)

val evictions : ('k, 'v) t -> int
(** Capacity evictions since creation ({!remove} and {!clear} do not
    count). *)

val reset_counters : ('k, 'v) t -> unit
(** Zero {!hits}, {!misses} and {!evictions}; entries are untouched.
    Lets a holder that {!clear}s the cache report statistics of the
    post-clear regime instead of the whole lifetime. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t k f] returns the cached value or computes, caches and
    returns [f ()]. *)
