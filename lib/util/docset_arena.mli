(** Per-query arenas of interned integer sets.

    Navigation passes the same citation sets up and down the stack: the
    [I(n)] sets of ancestor chains overlap massively, component trees copy
    node result lists out of the navigation tree, and the cost model's hot
    loop re-unions the same subtrees for every candidate cut. An arena
    stores each {e distinct} set exactly once (structural interning), picks
    a density-appropriate physical representation per set — sorted array
    for sparse sets, packed bitset for dense ones — and memoizes set
    algebra on interned ids, so repeated unions, intersections and
    distinct-count queries are O(1) table hits after first computation.

    Ids are only meaningful within their arena. {!Docset} wraps (arena, id)
    pairs into self-contained handles; this module is the storage layer.

    {b Concurrency model.} Writers are confined to one domain at a
    time: the arena carries an {!Ownership} stamp, mutating operations
    (interning, set algebra, live memoizing "reads" like
    {!inter_cardinal}) check it, and the engine {!adopt}s an arena
    under the engine lock before touching it from another domain. With
    [BIONAV_OWNERSHIP=1] a cross-domain mutation raises
    {!Ownership.Violation} instead of corrupting the tables.

    Pure reads ({!cardinal}, {!mem}, {!iter}, {!to_array},
    {!fingerprint}, …) are safe from {e any} domain {e concurrently
    with the single writer}: interned sets are immutable once published,
    and the backing arrays are grown copy-then-publish through
    [Atomic]s (slot stores happen before the set count is advanced, so
    a reader never observes a half-initialized slot). Only the memo
    tables remain writer-private — which is why {!inter_cardinal} is a
    mutating call on a live arena.

    A {!freeze}d arena rejects all further mutation (unconditionally,
    not just under [BIONAV_OWNERSHIP]) and in exchange every operation
    that doesn't intern — including {!inter_cardinal}, which switches
    to lookup-only memo reads — becomes safe from any number of domains
    with no lock. The engine freezes each published navigation
    snapshot's arena (DESIGN.md §12). *)

type t

type id = int
(** Dense arena-local set identifier. Equal ids denote the same physical
    (and therefore structurally equal) set. *)

val create : unit -> t
(** A fresh arena owned by the calling domain. *)

val adopt : t -> unit
(** Transfer ownership to the calling domain. Call only while holding
    the lock that serializes access to this arena (see {!Ownership.adopt}). *)

val owner_domain : t -> int
(** Id of the domain currently owning this arena. *)

val freeze : t -> unit
(** Irreversibly seal the arena: every mutating operation (interning,
    set algebra, {!adopt}) raises {!Ownership.Violation} from then on,
    and all remaining operations — including {!inter_cardinal} — become
    safe to call from any domain without synchronization. Call while
    still holding exclusive access; freezing is the arena's last
    mutation. *)

val is_frozen : t -> bool

val empty_id : id
(** The empty set, pre-interned in every arena (id 0). *)

val intern : t -> int array -> id
(** Intern a {b sorted, strictly increasing} array (not adopted — the
    arena copies or repacks). Returns the existing id when a structurally
    equal set is already interned. @raise Invalid_argument if the array is
    not strictly increasing. *)

val intern_unchecked : t -> int array -> id
(** [intern] without the sortedness check; the caller must guarantee it.
    The array must not be mutated afterwards (it may be adopted). *)

val import : t -> src:t -> id -> id
(** Intern [src]'s set [id] into this arena without copying it: interned
    representations are immutable, so the two arenas share the payload.
    O(1) plus, on a fingerprint match, one comparison. Only [src]'s
    lock-free reads are used. *)

val cardinal : t -> id -> int
(** O(1). *)

val fingerprint : t -> id -> int
(** Content hash, computed once at intern time; equal sets have equal
    fingerprints in {e any} arena. O(1). *)

val mem : t -> id -> int -> bool
val choose : t -> id -> int
(** Smallest element. @raise Not_found on the empty set. *)

val to_array : t -> id -> int array
(** Fresh sorted array; safe to mutate. *)

val iter : t -> id -> (int -> unit) -> unit
(** Ascending. *)

val fold : t -> id -> (int -> 'a -> 'a) -> 'a -> 'a
(** Ascending. *)

val equal_array : t -> id -> int array -> bool
(** Does the interned set contain exactly the elements of this sorted
    array? Allocation-free. *)

val union : t -> id -> id -> id
val inter : t -> id -> id -> id
val diff : t -> id -> id -> id
(** Memoized per (operation, operand pair): the first call materializes
    and interns the result, repeats are table hits. *)

val union_many : t -> id list -> id
(** Fold of memoized {!union}s over the de-duplicated, ascending operand
    ids — deterministic, so overlapping calls share memo entries. *)

val inter_cardinal : t -> id -> id -> int
(** [cardinal (inter a b)] without materializing the intersection:
    SWAR popcount over word pairs for bitset operands, merge-count for
    sorted ones. Memoized on live arenas (a mutating call); on frozen
    arenas the memo is consulted read-only and misses recompute. *)

val union_cardinal : t -> id -> id -> int
(** [cardinal a + cardinal b - inter_cardinal a b], allocation-free. *)

val subset : t -> id -> id -> bool

type stats = {
  sets : int;  (** Distinct sets interned (including the empty set). *)
  bytes : int;  (** Resident payload bytes across all representations. *)
  dense : int;  (** Sets stored as packed bitsets. *)
  sparse : int;  (** Sets stored as sorted arrays. *)
  intern_requests : int;  (** Total [intern] calls. *)
  dedup_hits : int;  (** Intern calls answered by an existing set. *)
  memo_hits : int;  (** Set-algebra calls answered from the op memo. *)
}

val stats : t -> stats

val dedup_hit_rate : t -> float
(** [dedup_hits / intern_requests], 0 when nothing was interned. *)
