(** Bounded LRU cache of decoded posting blocks.

    Keys are (segment uid, key index, block index); values are
    {!Bionav_util.Docset} handles, each interned in its own private
    mini-arena so that LRU eviction actually releases the decoded memory
    to the GC (a shared arena would grow forever under churn).

    Not synchronized: the engine that owns the {!Store} serves one
    caller at a time. The streaming [iter_*] paths bypass the cache
    entirely. *)

type t

val create : budget_bytes:int -> t
(** Capacity is [budget_bytes] divided by the nominal decoded block size
    ({!Block_codec.block_size} postings at one word each), floored at 8
    blocks. *)

val capacity_blocks : t -> int

val block : t -> Segment.t -> int -> int -> Bionav_util.Docset.t
(** [block t seg kidx bidx] — cached decode. Misses decode from the
    mapping, record latency in [bionav_segstore_block_decode_ms] and bump
    [bionav_segstore_block_cache_misses_total]; hits bump
    [bionav_segstore_block_cache_hits_total]. *)

val resident_blocks : t -> int
val resident_postings : t -> int

val publish : t -> unit
(** Refresh the [bionav_segstore_blocks_resident] /
    [bionav_segstore_resident_bytes] gauges from the live cache. *)
