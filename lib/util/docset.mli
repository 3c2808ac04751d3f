(** Immutable set handles over {!Docset_arena} storage.

    A [Docset.t] is an (arena, id) pair: the universal result-set type of
    the navigation stack. Two handles in the same arena are equal iff
    their ids are equal (O(1)); handles from different arenas compare by
    content fingerprint first, full scan only on fingerprint collision.

    Arena discipline: {!of_list} and friends intern into a private
    per-value arena (convenient for construction and tests); the [_in]
    variants intern into a caller-supplied arena so that sets built for
    one navigation tree share storage and memo tables. Binary operations
    between handles from different arenas rebase the right operand into
    the left operand's arena. *)

type t

val arena : t -> Docset_arena.t
val id : t -> Docset_arena.id

val empty : t
(** The empty set, in a process-wide shared arena. *)

val is_empty : t -> bool

(* --- construction (private mini-arena per value) ----------------------- *)

val singleton : int -> t

val of_list : int list -> t
(** Sorts and deduplicates. *)

val of_array : int array -> t
(** Sorts and deduplicates; does not mutate its argument. *)

val of_sorted_array_unchecked : int array -> t
(** The caller guarantees sorted strictly increasing; the array may be
    adopted and must not be mutated afterwards. *)

val of_intset : Intset.t -> t

(* --- construction into a shared arena ---------------------------------- *)

val of_list_in : Docset_arena.t -> int list -> t
val of_array_in : Docset_arena.t -> int array -> t
val of_sorted_array_unchecked_in : Docset_arena.t -> int array -> t
val of_intset_in : Docset_arena.t -> Intset.t -> t
val singleton_in : Docset_arena.t -> int -> t

val in_arena : Docset_arena.t -> t -> t
(** Rebase a handle into [arena] (no-op if it already lives there). *)

val consolidate : t array -> t array
(** Rebase every handle into one shared arena (the first non-empty
    handle's arena) so subsequent cross-element set algebra is memoized
    in one place. Used by constructors that accept per-node set arrays. *)

(* --- queries ------------------------------------------------------------ *)

val cardinal : t -> int
(** O(1). *)

val fingerprint : t -> int
(** Content hash; equal sets have equal fingerprints in any arena. O(1). *)

val mem : int -> t -> bool
val choose : t -> int
(** Smallest element. @raise Not_found if empty. *)

val max_elt : t -> int
(** Largest element. @raise Not_found if empty. *)

val equal : t -> t -> bool
(** O(1) within an arena; cross-arena compares fingerprints then content. *)

val compare : t -> t -> int
(** Total order consistent with {!equal} (fingerprint-major; content order
    on collision). Not the subset order. *)

val equal_array : t -> int array -> bool
(** Contains exactly the elements of this sorted array; allocation-free. *)

val elements : t -> int list
val to_array : t -> int array
(** Fresh copy; safe to mutate. *)

val to_intset : t -> Intset.t
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(* --- set algebra (memoized in the left operand's arena) ----------------- *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val union_many : t list -> t
(** Folds memoized unions in the first non-empty operand's arena. *)

val inter_cardinal : t -> t -> int
(** Allocation-free (SWAR popcount on bitset pairs); memoized. *)

val union_cardinal : t -> t -> int
val subset : t -> t -> bool

val pp : Format.formatter -> t -> unit
