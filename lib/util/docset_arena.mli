(** Per-query arenas of interned integer sets.

    Navigation passes the same citation sets up and down the stack: the
    [I(n)] sets of ancestor chains overlap massively, and component trees
    copy node result lists out of the navigation tree. An arena stores
    each {e distinct} set exactly once (structural interning), picks a
    density-appropriate physical representation per set — sorted array
    for sparse sets, packed bitset for dense ones — and memoizes set
    algebra on interned ids, so repeated unions and intersections are
    O(1) table hits after first computation. The solver's hot loop does
    not come here: the cost model counts a component's distinct results
    from its own signature table ({!Bionav_core.Cost_model.distinct}),
    and reduced trees build each supernode's set in one bitmap pass. The
    memo serves navigation-tree subtree unions, component unions and
    rendering's intersection counts.

    Ids are only meaningful within their arena. {!Docset} wraps (arena, id)
    pairs into self-contained handles; this module is the storage layer.

    {b Ownership.} An arena belongs to the one engine (or test, or
    bench) that builds it and is never synchronized: the engine serves
    one caller at a time (DESIGN.md §11). A {!freeze}d arena rejects
    every mutation with {!Frozen}; the engine freezes each published
    navigation snapshot's arena (DESIGN.md §12), so a snapshot's
    docsets cannot change under a reader. *)

type t

type id = int
(** Dense arena-local set identifier. Equal ids denote the same physical
    (and therefore structurally equal) set. *)

exception Frozen
(** Raised by every mutating operation (interning, set algebra) on a
    {!freeze}d arena. *)

val create : unit -> t

val freeze : t -> unit
(** Irreversibly seal the arena: every mutating operation raises
    {!Frozen} from then on, and {!inter_cardinal} reads its memo
    without writing it. Freezing is the arena's last mutation. *)

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
    O(1) plus, on a fingerprint match, one comparison. [src] is only
    read. *)

val cardinal : t -> id -> int
(** O(1). *)

val fingerprint : t -> id -> int
(** Content hash, computed once at intern time; equal sets have equal
    fingerprints in {e any} arena. O(1). *)

val mem : t -> id -> int -> bool
val choose : t -> id -> int
(** Smallest element. @raise Not_found on the empty set. *)

val max_elt : t -> id -> int
(** Largest element, O(1) up to one word scan. @raise Not_found on the
    empty set. *)

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
    sorted ones. Memoized on live arenas; on frozen arenas the memo is
    consulted read-only and misses recompute. *)

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
