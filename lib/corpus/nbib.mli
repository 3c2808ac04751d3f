(** Reading and writing citations in the MEDLINE "nbib" text format.

    PubMed exports citations as tagged flat records:

    {v
      PMID- 12345
      TI  - Prothymosin alpha in apoptosis.
      AB  - The abstract text, possibly wrapped
            onto continuation lines.
      AU  - Smith J
      JT  - J Biol Chem
      DP  - 2003
      MH  - Histones
      MH  - *Apoptosis
    v}

    [MH] lines carry the MeSH annotations ([*] marks a major topic); on
    import they are resolved against a hierarchy by exact label. This gives
    the repository a bridge to real exported MEDLINE data: citations written
    by {!to_string} round-trip, and hand-made nbib files can be imported as
    a corpus. Citation ids are renumbered densely in record order on import
    (the original PMID is not preserved). *)

val citation_to_string : Bionav_mesh.Hierarchy.t -> Citation.t -> string
(** One record, fields in canonical order, 80-column wrapped values. *)

val to_string : Medline.t -> string
(** All records, blank-line separated. *)

val of_string :
  ?on_unknown_mh:[ `Skip | `Fail ] ->
  hierarchy:Bionav_mesh.Hierarchy.t ->
  string ->
  Medline.t
(** Parse records (separated by [PMID-] lines). [on_unknown_mh] controls
    what happens to an MH label absent from the hierarchy (default [`Fail]).
    Citations keep ancestor closure of their annotations implicit — only
    the listed labels are attached, exactly as in a real MEDLINE export.
    @raise Invalid_argument on malformed records. *)

val save : Medline.t -> string -> unit

val load :
  ?on_unknown_mh:[ `Skip | `Fail ] ->
  hierarchy:Bionav_mesh.Hierarchy.t ->
  string ->
  Medline.t
(** Like {!of_string} but reading the file line-at-a-time (no whole-file
    slurp); the resulting corpus is still fully resident. *)

val fold_file :
  ?on_unknown_mh:[ `Skip | `Fail ] ->
  hierarchy:Bionav_mesh.Hierarchy.t ->
  string ->
  init:'a ->
  f:('a -> Citation.t -> 'a) ->
  'a
(** Stream the file record-at-a-time: each completed citation (ids dense
    in record order) is folded into [f] and then dropped, so memory is
    bounded by the largest single record — the parser the segment-store
    bulk ingest drives. @raise Invalid_argument on malformed records. *)
