(* Docset storage statistics. Result sets are plain values now (see
   Docset), so there is no arena left to describe; this record stays
   because the repository benchmark (perfbench/layers.ml) reads it from
   [Engine.docset_stats]. [bytes] is the resident payload of the sets the
   engine can reach; the three interning counters are always 0. *)
type stats = { bytes : int; intern_requests : int; dedup_hits : int; memo_hits : int }
