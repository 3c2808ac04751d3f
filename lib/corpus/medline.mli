(** The corpus container: a hierarchy plus a set of citations, with the
    per-concept posting lists BioNav's navigation-tree construction needs.

    This is the in-memory stand-in for the MEDLINE database. *)

type t

val make : Bionav_mesh.Hierarchy.t -> Citation.t array -> t
(** Builds posting lists (concept -> citation set) eagerly. Citation ids
    must equal their array index. @raise Invalid_argument otherwise. *)

val hierarchy : t -> Bionav_mesh.Hierarchy.t
val size : t -> int
(** Number of citations. *)

val citation : t -> int -> Citation.t
val citations : t -> Citation.t array
(** The underlying array; treat as read-only. *)

val postings : t -> int -> Bionav_util.Intset.t
(** [postings t concept] = set of citation ids associated with [concept]. *)

val iter_postings : t -> int -> (int -> unit) -> unit
(** Visit the concept's citations in increasing id order without handing
    out the underlying set. *)

val iter_citation_concepts : t -> int -> (int -> unit) -> unit
(** Visit a citation's annotation concepts in increasing id order — the
    streaming shape bulk ingest consumes. *)

val concept_count : t -> int -> int
(** [concept_count t concept] = |postings| — the corpus-wide citation count
    [LT(n)] used by the EXPLORE-probability estimate. *)

val mean_annotations : t -> float
(** Average association-set size per citation (calibration metric; the paper
    reports ≈90 for PubMed indexing). *)

val concepts_with_citations : t -> int
(** Number of concepts with a non-empty posting list. *)
