(** The BioNav database (paper Fig. 7, off-line part): the MeSH hierarchy,
    the concept-citation associations, and the corpus-wide per-concept
    citation counts [LT(n)] recorded during the crawl ("when executing the
    queries using the concepts as keywords, we also store the number of
    citations in the query result, since it is needed for the computation
    of [P_explore]").

    Two backends serve the association queries behind one interface:

    - {b Memory}: the {!Assoc_table} reference implementation — both
      orientations fully resident, built by {!of_medline} / {!make}.
    - {b External}: a record of iterator closures over an out-of-core
      store (the segment store, [Bionav_segstore]), installed by
      {!make_external}. Association lists are materialized lazily by the
      backend; only the [LT(n)] count array is resident here.

    Everything downstream (navigation-tree construction, codecs,
    snapshots) goes through the accessors below, so the backends are
    interchangeable — the metamorphic equivalence suite in
    [test_segstore] holds them to identical answers. *)

type t

type external_backend = {
  x_n_concepts : int;
  x_n_citations : int;
  x_n_associations : int;
  x_total_count : int -> int;
      (** [LT(concept)] from backend metadata; called once per concept at
          {!make_external} time. *)
  x_iter_citations_of_concept : int -> (int -> unit) -> unit;
      (** Visit the concept's citations in increasing id order. *)
  x_iter_concepts_of_citation : int -> (int -> unit) -> unit;
      (** Visit the citation's concepts in increasing id order. *)
}

val of_medline : Bionav_corpus.Medline.t -> t
(** The off-line pre-processing step: extract associations and counts from
    the corpus. *)

val make :
  hierarchy:Bionav_mesh.Hierarchy.t ->
  assoc:Assoc_table.t ->
  t
(** Assembles an in-memory database directly (used by the codec). Total
    counts are derived from the association table.
    @raise Invalid_argument if the table's concept count differs from the
    hierarchy size. *)

val make_external :
  hierarchy:Bionav_mesh.Hierarchy.t -> external_backend -> t
(** Assembles a database over an out-of-core backend.
    @raise Invalid_argument if [x_n_concepts] differs from the hierarchy
    size. *)

val hierarchy : t -> Bionav_mesh.Hierarchy.t

val assoc : t -> Assoc_table.t
(** The in-memory association table.
    @raise Invalid_argument on an external backend — callers that only
    need counts should use {!n_citations} / {!n_associations}, which work
    on both. *)

val is_external : t -> bool

val total_count : t -> int -> int
(** [total_count t concept] = corpus-wide citation count [LT(concept)].
    O(1) on both backends. *)

val n_citations : t -> int
val n_associations : t -> int

val citations_of_concept : t -> int -> Bionav_util.Intset.t
(** The concept's full posting list (materialized on an external
    backend). *)

val iter_citations_of_concept : t -> int -> (int -> unit) -> unit
val iter_concepts_of_citation : t -> int -> (int -> unit) -> unit
(** Streaming accessors (increasing id order) — no intermediate set is
    materialized on an external backend. *)

val concepts_of_result : t -> Bionav_util.Intset.t -> (int * Bionav_util.Intset.t) list
(** [concepts_of_result t result] is the on-line navigation-tree input: for
    each concept associated with at least one citation of [result], the
    subset of [result] attached to it. Implemented through the denormalized
    orientation, one lookup per result citation, as in the paper.

    Single owner: both bucketing calls reuse one per-concept count array
    held with the database (zero between calls), so calls on one
    database must not overlap — from two domains, or from inside the
    iteration of another. The database belongs to one engine, which
    serves one caller at a time (DESIGN.md §11). *)

val concepts_of_result_ds :
  t -> Bionav_util.Docset.t -> (int * Bionav_util.Docset.t) list
(** {!concepts_of_result} without the [Intset] round-trip: the result
    arrives and the attachments leave as {!Bionav_util.Docset} values,
    which is what {!Bionav_core.Nav_tree} consumes. *)
