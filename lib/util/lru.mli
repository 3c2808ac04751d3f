(** A small bounded least-recently-used cache.

    The on-line system builds one navigation tree per user query; repeated
    queries (the common case in exploratory search) should not pay the
    construction again, so the navigation subsystem keeps a bounded cache.
    Capacities are small (tens of entries), so eviction scans are O(n) by
    design — no intrusive lists to maintain. *)

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
(** Inserts or replaces; evicts the least recently used entry when full. *)

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
