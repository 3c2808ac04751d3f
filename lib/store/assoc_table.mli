(** The concept-citation association table.

    Paper §VII stores one (concept, citationId) tuple per association —
    747 million of them — and then denormalizes into one row per citation
    holding its whole concept list, because navigation-tree construction is
    driven by citation id ("the navigation tree is constructed by retrieving
    the MeSH concepts associated with each citation in the query result").
    We keep both orientations:

    - normalized: concept -> citation set (drives corpus-wide counts), and
    - denormalized: citation -> concept set (drives per-query tree building),

    mirroring the paper's schema at in-memory scale. *)

type t

val of_postings :
  n_citations:int -> Bionav_util.Intset.t array -> t
(** [of_postings ~n_citations postings] builds the table from the normalized
    orientation ([postings.(c)] = citations of concept [c]).
    @raise Invalid_argument on a citation id outside [0, n_citations). *)

val of_sorted_pairs :
  n_concepts:int -> n_citations:int -> (int * int) Seq.t -> t
(** [of_sorted_pairs ~n_concepts ~n_citations pairs] builds the table from
    a (concept, citation) pair stream sorted by concept then citation,
    duplicate-free — the shape a sorted-run merge emits — without the
    caller materializing per-concept sets.
    @raise Invalid_argument on an out-of-range id or an out-of-order
    pair. *)

val n_concepts : t -> int
val n_citations : t -> int
val n_associations : t -> int
(** Total number of (concept, citation) pairs. *)

val citations_of_concept : t -> int -> Bionav_util.Intset.t
val concepts_of_citation : t -> int -> Bionav_util.Intset.t

val fold_concepts :
  t -> init:'a -> f:('a -> int -> Bionav_util.Intset.t -> 'a) -> 'a
(** Folds over concepts with non-empty citation sets. *)
