(** Inverted index over citation text.

    The PubMed-query stand-in: each citation's title and abstract are
    tokenized and indexed; queries are conjunctions (PubMed's default AND
    semantics) with an OR mode for completeness. Posting lists are
    {!Bionav_util.Docset.t} values. Query answers are fresh values the
    index does not retain, so its resident size is fixed at build. *)

type t

val build : Bionav_corpus.Medline.t -> t
(** Index every citation's title and abstract. *)

val resident_bytes : t -> int
(** Payload bytes of the posting lists ({!Bionav_util.Docset.bytes}). *)

val postings : t -> string -> Bionav_util.Docset.t
(** Citations containing the (normalized) term; empty for unknown terms. *)

val query_and : t -> string -> Bionav_util.Docset.t
(** All citations containing every token of the query string. An empty or
    all-stop-word query returns the empty set. *)

val query_or : t -> string -> Bionav_util.Docset.t

val document_frequency : t -> string -> int
