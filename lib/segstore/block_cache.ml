open Bionav_util

type t = {
  lru : (int * int * int, Docset.t) Lru.t;
  capacity_blocks : int;
}

let hits = Metrics.counter "bionav_segstore_block_cache_hits_total"
let misses = Metrics.counter "bionav_segstore_block_cache_misses_total"
let decoded = Metrics.counter "bionav_segstore_blocks_decoded_total"
let decode_ms = Metrics.histogram "bionav_segstore_block_decode_ms"
let resident_blocks_g = Metrics.gauge "bionav_segstore_blocks_resident"
let resident_bytes_g = Metrics.gauge "bionav_segstore_resident_bytes"

let create ~budget_bytes =
  let block_bytes = Block_codec.block_size * (Sys.word_size / 8) in
  let capacity_blocks = max 8 (budget_bytes / block_bytes) in
  { lru = Lru.create ~capacity:capacity_blocks; capacity_blocks }

let capacity_blocks t = t.capacity_blocks

let block t seg kidx bidx =
  let key = (Segment.uid seg, kidx, bidx) in
  match Lru.find t.lru key with
  | Some ds ->
      Metrics.incr hits;
      ds
  | None ->
      Metrics.incr misses;
      let ds, ms =
        Timing.time (fun () ->
            Docset.of_sorted_array_unchecked (Segment.decode_block seg kidx bidx))
      in
      Metrics.observe decode_ms ms;
      Metrics.incr decoded;
      Lru.add t.lru key ds;
      ds

let resident_blocks t = Lru.length t.lru
let resident_postings t = Lru.fold t.lru (fun ds acc -> acc + Docset.cardinal ds) 0

let publish t =
  Metrics.set resident_blocks_g (float_of_int (resident_blocks t));
  Metrics.set resident_bytes_g
    (float_of_int (resident_postings t * (Sys.word_size / 8)))
