(** Warm-start snapshots: the per-query state the engine would otherwise
    recompute at first contact, persisted across restarts.

    A snapshot holds, for each warmed query, its result-citation set (so
    the navigation tree rebuilds from the database without re-running the
    query) and the root EdgeCut of a fresh session (so the first EXPAND
    is served without running Heuristic-ReducedOpt). The format is a
    versioned little-endian layout on {!Codec.Wire} primitives — magic
    ["BIONAVSNAP"], a format version, an FNV-1a-64 body checksum, and the
    source database's dimensions so a snapshot is never applied against a
    hierarchy or corpus other than the one it was built from.

    Version 2, the one format written and read, holds a deduplicated
    set table — the empty set, then each structurally distinct result
    set once, in first-use order, referenced by index. Any other
    version, the retired version 1 (inline per-entry result arrays)
    included, fails with an error naming version 2: a snapshot is bound
    to one database, so an old one is rebuilt, not migrated. *)

val version : int
(** The one version {!encode} writes and {!decode} accepts (2). *)

type entry = {
  query : string;  (** Normalized ({!Nav_cache.normalize}-style) query. *)
  results : Bionav_util.Intset.t;  (** Citations the query matched. *)
  root_cut : int list;
      (** Navigation-node children of the root EdgeCut in a fresh session;
          [[]] when the tree is too small to cut (static reveal). *)
}

val encode : db:Database.t -> entry list -> string
val decode : db:Database.t -> string -> entry list
(** @raise Invalid_argument on corruption (bad magic, wrong version,
    checksum mismatch, truncation) or when the snapshot was built against
    a database of different dimensions than [db]. *)

val save : db:Database.t -> entry list -> string -> unit
val load : db:Database.t -> string -> entry list
(** @raise Sys_error on I/O failure, [Invalid_argument] as {!decode}. *)
