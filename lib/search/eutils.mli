(** A local stand-in for the Entrez Programming Utilities (paper §VII).

    BioNav's on-line path uses exactly three eutils operations: ESearch
    (keyword query -> citation IDs), ESummary (IDs -> display metadata) and
    the concept associations. This facade exposes those operations over the
    synthetic corpus, so the navigation subsystem is written against the
    same interface the real system would use. *)

type t

val create : Bionav_corpus.Medline.t -> t
(** Builds the inverted index eagerly. *)

val esearch : t -> string -> Bionav_util.Docset.t
(** Keyword query (AND semantics) -> citation id set. *)

val esearch_count : t -> string -> int
(** Result count only (PubMed's [rettype=count]). *)

val esearch_paged :
  ?retstart:int -> ?retmax:int -> ?sort:[ `Id | `Relevance ] -> t -> string -> int list
(** The real ESearch's paging interface: ids from [retstart] (default 0),
    at most [retmax] (default 20), ordered by ascending id or by TF-IDF
    relevance (default [`Id], like PubMed's default date-ish order). *)

val esearch_mh :
  ?qualifier:string -> t -> string -> Bionav_util.Docset.t
(** PubMed's [term\[mh\]] field search: citations {e annotated} with the
    concept whose label matches exactly, optionally
    restricted to those carrying the given qualifier on that concept
    ("Histones/metabolism"). Returns the empty set for unknown labels;
    @raise Invalid_argument for an unknown qualifier name. *)

val esummary : t -> int list -> string list
(** One formatted summary line per requested id, in request order.
    @raise Invalid_argument on an unknown id. *)

val citation : t -> int -> Bionav_corpus.Citation.t
(** Full record fetch (EFetch-like). @raise Invalid_argument on unknown id. *)

val concepts_of : t -> int -> Bionav_util.Docset.t
(** Concept associations of one citation. *)

val medline : t -> Bionav_corpus.Medline.t

val index : t -> Inverted_index.t
(** The underlying inverted index — its {!Inverted_index.resident_bytes}
    is the search side of the engine's docset statistics. *)
