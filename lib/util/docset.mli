(** Immutable integer sets: the result-set type of the navigation stack.

    A [Docset.t] is a self-contained value. Each set is stored in the
    denser of two representations, chosen deterministically from its
    content: a sorted array ({!Intset}) for sparse sets, or a packed
    bitset of 32 bits per word over the set's own span for dense ones.
    Equal sets therefore always have equal representations, {!equal} is
    structural, and every operation returns a fresh or shared immutable
    value; nothing is interned or memoized. *)

type t

val empty : t
val is_empty : t -> bool

(* --- construction -------------------------------------------------------- *)

val singleton : int -> t

val of_list : int list -> t
(** Sorts and deduplicates. *)

val of_array : int array -> t
(** Sorts and deduplicates; does not mutate its argument. *)

val of_sorted_array_unchecked : int array -> t
(** The caller guarantees sorted strictly increasing (checked only by
    {!Intset.of_sorted_array_unchecked}'s debug assertion); the array may
    be adopted and must not be mutated afterwards. *)

val of_intset : Intset.t -> t
(** Shares the intset's storage when the set stays sparse. *)

(* --- queries ------------------------------------------------------------- *)

val cardinal : t -> int
(** O(1). *)

val fingerprint : t -> int
(** Content hash, O(n): equal sets have equal fingerprints. *)

val mem : int -> t -> bool
val choose : t -> int
(** Smallest element. @raise Not_found if empty. *)

val max_elt : t -> int
(** Largest element. @raise Not_found if empty. *)

val equal : t -> t -> bool
(** Structural. *)

val compare : t -> t -> int
(** Total order consistent with {!equal} (cardinality first, then
    ascending content). Not the subset order. *)

val equal_array : t -> int array -> bool
(** Contains exactly the elements of this sorted array; allocation-free. *)

val elements : t -> int list
val to_array : t -> int array
(** Fresh copy; safe to mutate. *)

val to_intset : t -> Intset.t
(** Shares the storage of a sparse set. *)

val iter : (int -> unit) -> t -> unit
(** Ascending. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending. *)

val bytes : t -> int
(** Payload bytes of the representation, for resident-memory accounting. *)

(* --- set algebra --------------------------------------------------------- *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val union_many : t list -> t
(** One k-way union: a bitmap over the operands' span when it is no
    larger than their total size, otherwise {!Intset.union_many}. When
    the union equals its largest operand, that operand is returned. *)

val inter_cardinal : t -> t -> int
(** [cardinal (inter a b)] without allocating (SWAR popcount on bitset
    pairs). *)

val union_cardinal : t -> t -> int
val subset : t -> t -> bool

val pp : Format.formatter -> t -> unit
