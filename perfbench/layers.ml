(* The per-layer metrics of a traced run. Every workload reports the
   same list (a layer a workload does not exercise reads 0), so that
   rows line up across workloads; [names] is the list BENCHMARK.json
   declares. *)

open Common

type input = {
  c0 : counters;  (* program counters at the start of the measured phase *)
  c1 : counters;  (* ... and at its end *)
  engine : Engine.t;
  ops : int;  (* engine calls made (or HTTP requests served) *)
  expand_self : Kit.samples;  (* Engine.expand span minus its navigation EXPAND time *)
  reduced_sizes : Kit.samples;  (* expand_record.reduced_size of solver-run EXPANDs *)
  stages : (string * Kit.samples) list;  (* replayed solver stages, by name *)
  web_requests : int;
  web_failed : int;
  handler_ms : Kit.samples;
  transport_ms : Kit.samples;
  late_ms : Kit.samples;
  ingest_s : float;
  bytes_per_association : float;
  trace : Trace.t;
}

let empty_input ~c0 ~c1 ~engine ~trace =
  {
    c0; c1; engine; ops = 0; expand_self = Kit.samples (); reduced_sizes = Kit.samples ();
    stages = []; web_requests = 0; web_failed = 0; handler_ms = Kit.samples ();
    transport_ms = Kit.samples (); late_ms = Kit.samples (); ingest_s = 0.;
    bytes_per_association = 0.; trace;
  }

(* Spans of the benchmark's own work inside a root span — verification
   replays and counter reads — are not blocking time of the program. *)
let bench_layers = [ "bench.replay"; "bench.trace" ]

(* Layers whose self time is reported as a share of blocking time. The
   root spans' own self time is the unattributed part. *)
let share_layers =
  [ ("solver", "solver"); ("navigation", "navigation"); ("engine", "engine");
    ("engine.lock_wait", "lock_wait"); ("prefetch", "prefetch"); ("tree_build", "tree_build");
    ("search", "search"); ("derive", "derive"); ("segstore", "segstore");
    ("web.handler", "web"); ("loadgen", "loadgen") ]

(* name, unit, better *)
let names =
  [ ("solver.calls", "count", "lower"); ("solver.plan_reuse_ratio", "ratio", "higher");
    ("solver.reduced_size_mean", "supernodes", "lower");
    ("solver.heuristic_ms_mean", "ms", "lower"); ("solver.partition_ms_mean", "ms", "lower");
    ("solver.reduced_tree_ms_mean", "ms", "lower"); ("solver.cost_model_ms_mean", "ms", "lower");
    ("solver.opt_edgecut_ms_mean", "ms", "lower"); ("derive.refine_ms_mean", "ms", "lower");
    ("derive.facet_ms_mean", "ms", "lower"); ("derive.nav_tree_build_ms_mean", "ms", "lower");
    ("derive.tree_cache_hit_rate", "ratio", "higher");
    ("derive.tree_cache_evictions", "count", "lower"); ("search.esearch_calls", "count", "lower");
    ("search.esearch_ms_mean", "ms", "lower"); ("engine.expand_self_ms_mean", "ms", "lower");
    ("engine.lock_wait_ms_mean", "ms", "lower"); ("engine.lock_hold_ms_mean", "ms", "lower");
    ("engine.lock_acquisitions_per_op", "count", "lower"); ("engine.evictions", "count", "lower");
    ("prefetch.plan_hit_rate", "ratio", "higher"); ("prefetch.plan_lookups", "count", "higher");
    ("prefetch.speculations", "count", "lower"); ("prefetch.useful_ratio", "ratio", "higher");
    ("prefetch.precompute_ms_mean", "ms", "lower"); ("web.requests", "count", "higher");
    ("web.failed", "count", "lower"); ("web.handler_ms_p50", "ms", "lower");
    ("web.handler_ms_p99", "ms", "lower"); ("web.transport_ms_p50", "ms", "lower");
    ("web.transport_ms_p99", "ms", "lower"); ("web.queue_wait_ms_mean", "ms", "lower");
    ("web.keepalive_reuse_ratio", "ratio", "higher");
    ("segstore.block_cache_hit_rate", "ratio", "higher");
    ("segstore.blocks_decoded", "count", "lower"); ("segstore.decode_ms_total", "ms", "lower");
    ("segstore.ingest_s", "s", "lower"); ("segstore.bytes_per_association", "bytes", "lower");
    ("docset.memo_hit_rate", "ratio", "higher"); ("docset.dedup_hit_rate", "ratio", "higher");
    ("docset.resident_bytes", "bytes", "lower"); ("loadgen.late_ms_p99", "ms", "lower");
    ("trace.unattributed_share", "ratio", "lower") ]
  @ List.map (fun (_, short) -> ("share." ^ short, "ratio", "lower")) share_layers

let metrics (i : input) =
  let d = delta i.c0 i.c1 in
  let mean_of h =
    let n = d (h ^ "_count") in
    (ratio (d (h ^ "_sum")) n, int_of_float n)
  in
  let m ?(n = 0) name value = metric ~n name "" value in
  let mean_samples name s = m ~n:(Kit.count s) name (Kit.mean s) in
  let pct name s p =
    let r = Kit.percentile (Kit.to_sorted s) p in
    metric ~n:r.Kit.n ~p:r.Kit.p name "" (if r.Kit.n = 0 then 0. else r.Kit.value)
  in
  let stage name =
    match List.assoc_opt name i.stages with
    | Some s -> mean_samples ("solver." ^ name ^ "_ms_mean") s
    | None -> m ("solver." ^ name ^ "_ms_mean") 0.
  in
  let heur_ms, heur_n = mean_of "bionav_heuristic_cut_ms" in
  let plan_hits = d "bionav_prefetch_plan_hits_total" in
  let plan_lookups = plan_hits +. d "bionav_prefetch_plan_misses_total" in
  let speculations = d "bionav_prefetch_speculations_total" in
  let expands = d "bionav_expands_total" in
  let refine_ms, refine_n = mean_of "bionav_space_derivation_ms_descriptor" in
  let facet_ms, facet_n = mean_of "bionav_space_derivation_ms_qualifier" in
  let build_ms, build_n = mean_of "bionav_nav_tree_build_ms" in
  let tc_hits = d "bionav_cache_hits_total" and tc_misses = d "bionav_cache_misses_total" in
  let es_ms, es_n = mean_of "bionav_esearch_ms" in
  let wait_ms, wait_n = mean_of "bionav_shard_lock_wait_ms" in
  let hold_ms, hold_n = mean_of "bionav_shard_lock_hold_ms" in
  let pre_ms, pre_n = mean_of "bionav_prefetch_precompute_latency_ms" in
  let qw_ms, qw_n = mean_of "bionav_serve_queue_wait_ms" in
  let bc_hits = d "bionav_segstore_block_cache_hits_total" in
  let bc_misses = d "bionav_segstore_block_cache_misses_total" in
  let ds = Engine.docset_stats i.engine in
  let open Bionav_util.Docset_arena in
  let blocking =
    List.fold_left
      (fun acc l -> acc -. Trace.layer_total_ms i.trace l)
      (Trace.root_total_ms i.trace) bench_layers
  in
  let selfs = Trace.self_by_layer i.trace in
  let self_of layer =
    match List.find_opt (fun (l : Trace.layer_time) -> l.Trace.layer = layer) selfs with
    | Some l -> l.Trace.self_ms
    | None -> 0.
  in
  [ m ~n:heur_n "solver.calls" (float_of_int heur_n);
    m ~n:(int_of_float expands) "solver.plan_reuse_ratio" (ratio plan_hits expands);
    mean_samples "solver.reduced_size_mean" i.reduced_sizes;
    m ~n:heur_n "solver.heuristic_ms_mean" heur_ms; stage "partition"; stage "reduced_tree";
    stage "cost_model"; stage "opt_edgecut"; m ~n:refine_n "derive.refine_ms_mean" refine_ms;
    m ~n:facet_n "derive.facet_ms_mean" facet_ms;
    m ~n:build_n "derive.nav_tree_build_ms_mean" build_ms;
    m ~n:(int_of_float (tc_hits +. tc_misses)) "derive.tree_cache_hit_rate"
      (ratio tc_hits (tc_hits +. tc_misses));
    m "derive.tree_cache_evictions" (d "bionav_cache_evictions_total");
    m "search.esearch_calls" (d "bionav_esearch_total"); m ~n:es_n "search.esearch_ms_mean" es_ms;
    mean_samples "engine.expand_self_ms_mean" i.expand_self;
    m ~n:wait_n "engine.lock_wait_ms_mean" wait_ms; m ~n:hold_n "engine.lock_hold_ms_mean" hold_ms;
    m ~n:i.ops "engine.lock_acquisitions_per_op"
      (ratio (d "bionav_shard_lock_acquisitions_total") (float_of_int i.ops));
    m "engine.evictions" (d "bionav_sessions_evicted_total");
    m ~n:(int_of_float plan_lookups) "prefetch.plan_hit_rate" (ratio plan_hits plan_lookups);
    m "prefetch.plan_lookups" plan_lookups; m "prefetch.speculations" speculations;
    m ~n:(int_of_float speculations) "prefetch.useful_ratio" (ratio plan_hits speculations);
    m ~n:pre_n "prefetch.precompute_ms_mean" pre_ms;
    m "web.requests" (float_of_int i.web_requests); m "web.failed" (float_of_int i.web_failed);
    pct "web.handler_ms_p50" i.handler_ms 50.; pct "web.handler_ms_p99" i.handler_ms 99.;
    pct "web.transport_ms_p50" i.transport_ms 50.; pct "web.transport_ms_p99" i.transport_ms 99.;
    m ~n:qw_n "web.queue_wait_ms_mean" qw_ms;
    m ~n:i.web_requests "web.keepalive_reuse_ratio"
      (ratio (d "bionav_serve_keepalive_reuses_total") (d "bionav_serve_requests_total"));
    m ~n:(int_of_float (bc_hits +. bc_misses)) "segstore.block_cache_hit_rate"
      (ratio bc_hits (bc_hits +. bc_misses));
    m "segstore.blocks_decoded" (d "bionav_segstore_blocks_decoded_total");
    m "segstore.decode_ms_total" (d "bionav_segstore_block_decode_ms_sum");
    m "segstore.ingest_s" i.ingest_s; m "segstore.bytes_per_association" i.bytes_per_association;
    m "docset.memo_hit_rate"
      (ratio (float_of_int ds.memo_hits) (float_of_int (ds.memo_hits + ds.intern_requests)));
    m "docset.dedup_hit_rate"
      (ratio (float_of_int ds.dedup_hits) (float_of_int ds.intern_requests));
    m "docset.resident_bytes" (float_of_int ds.bytes); pct "loadgen.late_ms_p99" i.late_ms 99.;
    m "trace.unattributed_share" (ratio (self_of "bench") blocking) ]
  @ List.map
      (fun (layer, short) -> m ("share." ^ short) (ratio (self_of layer) blocking))
      share_layers
  |> List.map (fun (x : metric) ->
         let _, unit, _ = List.find (fun (n, _, _) -> n = x.name) names in
         { x with unit })
