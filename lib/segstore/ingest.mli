(** Streaming bulk ingest: build a segment store without ever holding the
    corpus in memory.

    The pipeline is the classic external sort:

    + Citations arrive one at a time in id order. Each one's association
      list is appended directly to a rolling {e forward} segment (keys =
      citation ids, already sorted), and every (concept, citation) pair is
      packed into a bounded in-memory run buffer.
    + When the buffer fills it is sorted and spilled to a varint-delta run
      file, so peak memory is [run_budget_pairs] words regardless of
      corpus size.
    + {!seal} k-way-merges the spilled runs with the residual buffer into
      rolling {e inverted} segments (keys = concepts), writes the
      {!Manifest} atomically, and deletes the run files.

    Segments are cut at key boundaries once they pass
    [segment_max_bytes]. *)

type config = {
  run_budget_pairs : int;
      (** In-memory run buffer capacity, in (concept, citation) pairs —
          the ingest memory bound (default [2^20], 8 MiB of words). *)
  segment_max_bytes : int;  (** Rolling segment cut threshold (default 64 MiB). *)
}

val default_config : config

type t

val create : ?config:config -> n_concepts:int -> string -> t
(** [create ~n_concepts dir] — [dir] is created if absent.
    @raise Invalid_argument if [n_concepts] is out of the packable
    range, or if [dir] already holds a store or the leftovers of one
    ([MANIFEST], [MANIFEST.tmp], [*.seg] or [run-*.tmp]): segment file
    names repeat across generations, so writing there would truncate the
    live store's segments before the new manifest exists. *)

val add_citation : t -> id:int -> ((int -> unit) -> unit) -> unit
(** [add_citation t ~id iter_concepts] — [iter_concepts f] must visit the
    citation's concepts strictly increasing; ids must arrive sequentially
    from 0. A citation with no concepts is counted but stores nothing. *)

type summary = {
  n_citations : int;
  n_associations : int;
  runs_spilled : int;
  n_segments : int;
  bytes : int;  (** Total sealed segment bytes. *)
}

val seal : t -> summary
(** Merge, write segments + manifest, clean up run files. The ingester is
    dead afterwards. *)

(* --- conveniences over the corpus sources ------------------------------- *)

val ingest_medline : ?config:config -> dir:string -> Bionav_corpus.Medline.t -> summary

val ingest_generated :
  ?config:config ->
  dir:string ->
  params:Bionav_corpus.Generator.params ->
  seed:int ->
  Bionav_mesh.Hierarchy.t ->
  summary
(** Streams {!Bionav_corpus.Generator.iter} straight into the ingester —
    the full out-of-core path: the corpus never exists in memory. *)

val ingest_nbib :
  ?config:config ->
  ?on_unknown_mh:[ `Skip | `Fail ] ->
  dir:string ->
  hierarchy:Bionav_mesh.Hierarchy.t ->
  string ->
  summary
(** Streams an nbib export file via {!Bionav_corpus.Nbib.fold_file}. *)
