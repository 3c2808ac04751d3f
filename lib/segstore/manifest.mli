(** The segment-store directory manifest: one small text file naming every
    sealed segment with its key range, sizes and data checksum, plus the
    corpus-level counts.

    Written atomically (tmp + fsync + rename + directory fsync) as the
    last step of {!Ingest.seal}, after every segment file is fsynced,
    so a crash mid-ingest leaves either no manifest (store unreadable,
    ingest retried) or a complete one over fully sealed segments — never
    a manifest pointing at a half-written segment. *)

type entry = {
  orientation : Segment.orientation;
  file : string;  (** Basename, relative to the store directory. *)
  first_key : int;
  last_key : int;
  n_keys : int;
  n_postings : int;
  bytes : int;
  checksum : int64;
}

type t = {
  n_concepts : int;
  n_citations : int;
  n_associations : int;
  segments : entry list;  (** In orientation-then-key order. *)
}

val filename : string
(** ["MANIFEST"]. *)

val entry_of_summary : Segment.summary -> entry

val write : dir:string -> t -> unit
(** Atomic and durable: writes and fsyncs [MANIFEST.tmp], renames it over
    {!filename}, then fsyncs [dir]. A crash before the rename leaves the
    previous manifest in force (a stale or truncated [MANIFEST.tmp] is
    never read). *)

val read : dir:string -> t
(** @raise Invalid_argument (prefixed ["Segstore.manifest: "]) on a
    malformed manifest, [Sys_error] if absent. *)
