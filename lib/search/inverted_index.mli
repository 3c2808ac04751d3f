(** Inverted index over citation text.

    The PubMed-query stand-in: each citation's title and abstract are
    tokenized and indexed; queries are conjunctions (PubMed's default AND
    semantics) with an OR mode for completeness. Posting lists are
    {!Bionav_util.Docset.t} handles interned in one long-lived index
    arena: structurally equal lists share storage, and query evaluation
    is memoized there, so repeated queries are O(1) table hits. *)

type t

val build : Bionav_corpus.Medline.t -> t
(** Index every citation's title and abstract. *)

val arena : t -> Bionav_util.Docset_arena.t
(** The index's arena, for observability ({!Bionav_util.Docset_arena.stats}). *)

val postings : t -> string -> Bionav_util.Docset.t
(** Citations containing the (normalized) term; empty for unknown terms. *)

val query_and : t -> string -> Bionav_util.Docset.t
(** All citations containing every token of the query string. An empty or
    all-stop-word query returns the empty set. *)

val query_or : t -> string -> Bionav_util.Docset.t

val document_frequency : t -> string -> int
