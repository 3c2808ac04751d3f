(** Dimension-generic navigation spaces.

    The original pipeline derived exactly one tree per query: the maximum
    embedding of the MeSH descriptor hierarchy over the result set. A
    {e navigation space} generalizes that step: a space is a navigation
    tree derived from a result set along a {e cut dimension}. Two
    dimensions exist today:

    - {!Descriptor} — the paper's TOPDOWN axis: {!Nav_tree.of_database}
      over the MeSH hierarchy (unchanged behaviour);
    - {!Qualifier_facet} — the (descriptor × qualifier) facet axis: a
      flat synthetic hierarchy with one page per MeSH qualifier
      (subheading) plus an "(unqualified)" page, fed from the corpus'
      {!Bionav_corpus.Citation.qualified} annotations.

    Facet pages {e partition} the result set exactly: each citation is
    assigned to the single page of its {e primary qualifier} — the
    smallest qualifier id over all of its descriptor/qualifier
    annotations — or to the unqualified page when it carries none. No
    citation is lost or duplicated across pages, so SHOWRESULTS over the
    cut of a facet space enumerates the result set exactly once.

    A refinement derives its descriptor space by {!restrict}ing the
    descriptor tree it narrows. Derivation is timed into per-dimension
    [bionav_space_derivation_ms_<dimension>] histograms. *)

type dimension = Descriptor | Qualifier_facet

type deriver
(** Everything needed to derive a space along any dimension for one
    corpus: the database (descriptor dimension) plus the corpus citations
    (qualifier annotations), with the facet hierarchy and its corpus-wide
    page totals built lazily on first facet derivation. *)

val deriver :
  ?medline:Bionav_corpus.Medline.t -> Bionav_store.Database.t -> deriver
(** Without [medline] the {!Qualifier_facet} dimension is unavailable
    (the database alone does not carry qualifier annotations) and
    {!derive} raises [Invalid_argument] for it. *)

val supports : deriver -> dimension -> bool

val derive : deriver -> dimension -> Bionav_util.Docset.t -> Nav_tree.t
(** Derive the navigation space of a result set along a dimension from
    scratch. @raise Invalid_argument on an unsupported dimension (facet
    without [medline]). *)

val restrict : Nav_tree.t -> Bionav_util.Docset.t -> Nav_tree.t
(** The descriptor space of a subset of a descriptor tree's results,
    filtered out of that tree ({!Nav_tree.restrict}): equal to
    [derive _ Descriptor subset], without reading the database or
    walking the hierarchy. Timed into the descriptor histogram. *)

(* --- facet structure (exposed for rendering and tests) ----------------- *)

val primary_qualifier : Bionav_corpus.Citation.t -> Bionav_mesh.Qualifiers.t option
(** The single qualifier page a citation belongs to: the smallest
    qualifier id over all its annotations, [None] when it has none. *)

val page_concept : Bionav_mesh.Qualifiers.t option -> int
(** Facet-hierarchy concept id of a qualifier page: qualifier [q] maps to
    [q + 1] (node 0 is the root), [None] (unqualified) to
    [Qualifiers.count + 1]. *)
