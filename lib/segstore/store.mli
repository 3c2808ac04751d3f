(** An opened segment store: the out-of-core association backend.

    Both orientations of the association table live in sealed, mmap-backed
    segments ({!Segment}); this module routes a key to its segment and
    materializes posting lists on demand through a bounded {!Block_cache}.

    Metadata reads ([concept_count], [n_*]) and the streaming [iter_*]
    accessors decode straight off the immutable mapping; the
    {!Docset}-returning accessors go through the block cache, which is
    not synchronized — the engine that owns the store serves one caller
    at a time. *)

type config = {
  cache_budget_bytes : int;
      (** Decoded-block LRU budget (default 4 MiB). This — not the corpus
          size — bounds resident decoded postings. *)
  verify_data : bool;
      (** Full data-checksum scan of every segment at open (default
          false; the directory checksum is always verified). *)
}

val default_config : config

type spec = { dir : string; spec_config : config }
(** How callers (engine config, CLI flags) name a store to open. *)

val spec : ?config:config -> string -> spec

type t

val open_dir : ?config:config -> string -> t
(** Open a directory sealed by {!Ingest}. Reads the manifest, maps every
    segment, and cross-checks manifest metadata (key ranges, counts,
    checksums) against each segment's own directory.
    @raise Invalid_argument on corruption or mismatch, [Sys_error] if the
    manifest is missing. *)

val dir : t -> string
val n_concepts : t -> int
val n_citations : t -> int
val n_associations : t -> int
val n_segments : t -> int
val file_bytes : t -> int
(** Total on-disk segment bytes (the denominator of the out-of-core
    ratio: corpus bytes over [cache_budget_bytes]). *)

val config : t -> config

val concept_count : t -> int -> int
(** [LT(concept)] from segment directory metadata — no block decode. *)

val iter_postings : t -> int -> (int -> unit) -> unit
(** Stream a concept's citations in increasing order, bypassing the
    cache. *)

val iter_concepts_of_citation : t -> int -> (int -> unit) -> unit

val postings : t -> int -> Bionav_util.Docset.t
(** Materialize a concept's posting list through the block cache. *)

val concepts_of_citation : t -> int -> Bionav_util.Docset.t

val publish_metrics : t -> unit
(** Refresh cache gauges (and per-store segment/byte gauges). *)
