open Bionav_util

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let test_counter_basics () =
  let c = Metrics.counter "test_counter_basics" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "accumulates" 5 (Metrics.value c);
  Metrics.incr ~by:0 c;
  Alcotest.(check int) "by:0 is a no-op" 5 (Metrics.value c)

let test_counter_is_shared_by_name () =
  let a = Metrics.counter "test_counter_shared" in
  let b = Metrics.counter "test_counter_shared" in
  Metrics.incr a;
  Alcotest.(check int) "same underlying cell" 1 (Metrics.value b)

let test_counter_rejects_negative () =
  let c = Metrics.counter "test_counter_negative" in
  Alcotest.(check bool) "negative by" true
    (try
       Metrics.incr ~by:(-1) c;
       false
     with Invalid_argument _ -> true)

let test_gauge () =
  let g = Metrics.gauge "test_gauge" in
  Alcotest.(check (float 0.)) "starts at zero" 0. (Metrics.gauge_value g);
  Metrics.set g 12.5;
  Alcotest.(check (float 0.)) "set" 12.5 (Metrics.gauge_value g);
  Metrics.set g 3.;
  Alcotest.(check (float 0.)) "overwrite" 3. (Metrics.gauge_value g)

let test_bad_names_rejected () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "name %S" name) true
        (try
           ignore (Metrics.counter name);
           false
         with Invalid_argument _ -> true))
    [ ""; "has space"; "has\"quote"; "has{brace"; "has}brace"; "has\nnewline" ]

let test_kind_clash_rejected () =
  ignore (Metrics.counter "test_kind_clash");
  Alcotest.(check bool) "gauge over counter" true
    (try
       ignore (Metrics.gauge "test_kind_clash");
       false
     with Invalid_argument _ -> true)

(* Percentiles on a known distribution: observations 1..100 with bucket
   bounds 10, 20, ..., 100 put exactly 10 observations in each bucket, so
   linear interpolation recovers pN = N exactly. *)
let known_histogram () =
  let h =
    Metrics.histogram
      ~buckets:(Array.init 10 (fun i -> float_of_int ((i + 1) * 10)))
      "test_hist_known"
  in
  for v = 1 to 100 do
    Metrics.observe h (float_of_int v)
  done;
  h

let test_histogram_percentiles () =
  let h = known_histogram () in
  Alcotest.(check int) "count" 100 (Metrics.count h);
  Alcotest.(check (float 1e-9)) "sum" 5050. (Metrics.sum h);
  Alcotest.(check (float 1e-9)) "p50" 50. (Metrics.percentile h 50.);
  Alcotest.(check (float 1e-9)) "p95" 95. (Metrics.percentile h 95.);
  Alcotest.(check (float 1e-9)) "p99" 99. (Metrics.percentile h 99.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Metrics.percentile h 100.)

let test_histogram_empty () =
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] "test_hist_empty" in
  Alcotest.(check int) "count" 0 (Metrics.count h);
  Alcotest.(check (float 0.)) "sum" 0. (Metrics.sum h);
  Alcotest.(check (float 0.)) "p50 of empty" 0. (Metrics.percentile h 50.)

let test_histogram_overflow_bucket () =
  let h = Metrics.histogram ~buckets:[| 10. |] "test_hist_overflow" in
  Metrics.observe h 500.;
  Metrics.observe h 500.;
  (* Both land beyond the last bound; the overflow bucket interpolates up
     to the observed maximum. *)
  Alcotest.(check (float 1e-9)) "p100 = max" 500. (Metrics.percentile h 100.);
  Alcotest.(check bool) "p50 between bound and max" true
    (let p = Metrics.percentile h 50. in
     p >= 10. && p <= 500.)

let test_histogram_rejects_bad_buckets () =
  List.iter
    (fun (name, buckets) ->
      Alcotest.(check bool) name true
        (try
           ignore (Metrics.histogram ~buckets name);
           false
         with Invalid_argument _ -> true))
    [ ("test_hist_unsorted", [| 2.; 1. |]); ("test_hist_nobuckets", [||]) ]

let test_dump_format () =
  let c = Metrics.counter "test_dump_counter" in
  Metrics.incr ~by:7 c;
  let g = Metrics.gauge "test_dump_gauge" in
  Metrics.set g 2.5;
  let h = Metrics.histogram ~buckets:[| 1.; 10. |] "test_dump_hist" in
  Metrics.observe h 0.5;
  let out = Metrics.dump () in
  Alcotest.(check bool) "counter line" true (contains ~sub:"test_dump_counter 7" out);
  Alcotest.(check bool) "gauge line" true (contains ~sub:"test_dump_gauge 2.5" out);
  Alcotest.(check bool) "hist count" true (contains ~sub:"test_dump_hist_count 1" out);
  Alcotest.(check bool) "hist sum" true (contains ~sub:"test_dump_hist_sum 0.5" out);
  Alcotest.(check bool) "hist quantile" true
    (contains ~sub:"test_dump_hist{quantile=\"0.5\"}" out);
  (* Sorted by name: the counter line precedes the gauge line. *)
  let idx sub =
    let n = String.length out and m = String.length sub in
    let rec go i = if i + m > n then -1 else if String.sub out i m = sub then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "sorted" true
    (idx "test_dump_counter" >= 0 && idx "test_dump_counter" < idx "test_dump_gauge")

let test_reset () =
  let c = Metrics.counter "test_reset_counter" in
  let h = Metrics.histogram ~buckets:[| 1. |] "test_reset_hist" in
  Metrics.incr ~by:3 c;
  Metrics.observe h 0.5;
  Metrics.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.count h);
  Metrics.incr c;
  Alcotest.(check int) "still usable" 1 (Metrics.value c)

(* --- multi-domain exactness ------------------------------------------- *)
(* Joining a domain is a happens-before edge, so after every writer is
   joined the aggregated values must be exact, not approximate. *)

let test_counter_cross_domain_exact () =
  let c = Metrics.counter "test_domains_counter" in
  let domains = 4 and per_domain = 10_000 in
  let workers =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join workers;
  Alcotest.(check int) "no lost increment" (domains * per_domain) (Metrics.value c)

let test_histogram_cross_domain_exact () =
  let h =
    Metrics.histogram ~buckets:(Array.init 10 (fun i -> float_of_int ((i + 1) * 10)))
      "test_domains_hist"
  in
  let domains = 4 and per_domain = 2_500 in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for v = 1 to per_domain do
              Metrics.observe h (float_of_int (((d + v) mod 100) + 1))
            done))
  in
  Array.iter Domain.join workers;
  Alcotest.(check int) "every observation counted" (domains * per_domain) (Metrics.count h);
  Alcotest.(check bool) "percentiles aggregate across shards" true
    (let p = Metrics.percentile h 50. in
     p > 0. && p <= 100.);
  Metrics.reset ();
  Alcotest.(check int) "reset clears every domain's shard" 0 (Metrics.count h)

(* --- navigation-space metrics: exactness through the engine ------------- *)

module Engine = Bionav_engine.Engine
module Nav_tree = Bionav_core.Nav_tree

(* A small synthetic corpus whose seeded "glioma" query reaches concepts
   at depth >= 3, so a root EXPAND reveals something to refine on. *)
let glioma_corpus () =
  let module S = Bionav_mesh.Synthetic in
  let module G = Bionav_corpus.Generator in
  let h = S.generate ~params:S.small_params ~seed:411 () in
  let deep =
    List.filter (fun c -> Bionav_mesh.Hierarchy.depth h c >= 3)
      (List.init (Bionav_mesh.Hierarchy.size h) Fun.id)
  in
  let params =
    {
      G.small_params with
      G.n_citations = 300;
      seeded_groups =
        [
          {
            G.tag = Some "glioma";
            cluster = [ List.nth deep 0; List.nth deep 5 ];
            count = 40;
            topics_per_citation = (1, 2);
          };
        ];
    }
  in
  G.generate ~params ~seed:412 h

(* The refinement counter, depth gauge and per-dimension derivation
   histograms must count exactly: one increment per frame push, the gauge
   tracking the live stack depth, one derivation observation per {e cold}
   derive (revisits come from the nav cache and must not observe). *)
let test_navigation_space_metrics_exact () =
  Metrics.reset ();
  let m = glioma_corpus () in
  let engine =
    Engine.create ~database:(Bionav_store.Database.of_medline m)
      ~eutils:(Bionav_search.Eutils.create m) ()
  in
  let refinements = Metrics.counter "bionav_refinements_total" in
  let depth_gauge = Metrics.gauge "bionav_refine_depth" in
  let dh = Metrics.histogram "bionav_space_derivation_ms_descriptor" in
  let qh = Metrics.histogram "bionav_space_derivation_ms_qualifier" in
  let r0 = Metrics.value refinements in
  let d0 = Metrics.count dh and q0 = Metrics.count qh in
  match Engine.search engine "glioma" with
  | Ok Engine.No_results | Error _ -> Alcotest.fail "seeded query found nothing"
  | Ok (Engine.Session s) ->
      let root () = Nav_tree.root (Engine.session_nav s) in
      (* The plain search derives nothing through Nav_space. *)
      Alcotest.(check int) "search derives no space" d0 (Metrics.count dh);
      let node =
        match Engine.expand s (root ()) with
        | n :: _ -> n
        | [] -> Alcotest.fail "root expand revealed nothing"
      in
      ignore (Engine.refine s node : int);
      Alcotest.(check int) "one refinement counted" (r0 + 1) (Metrics.value refinements);
      Alcotest.(check (float 0.)) "depth gauge 1" 1. (Metrics.gauge_value depth_gauge);
      Alcotest.(check int) "one descriptor derivation" (d0 + 1) (Metrics.count dh);
      ignore (Engine.facet s : int);
      Alcotest.(check int) "facet counted too" (r0 + 2) (Metrics.value refinements);
      Alcotest.(check (float 0.)) "depth gauge 2" 2. (Metrics.gauge_value depth_gauge);
      Alcotest.(check int) "one qualifier derivation" (q0 + 1) (Metrics.count qh);
      ignore (Engine.unrefine s : bool);
      ignore (Engine.unrefine s : bool);
      Alcotest.(check (float 0.)) "depth gauge back to 0" 0.
        (Metrics.gauge_value depth_gauge);
      (* Revisiting the identical refinement re-counts the action but is
         served from the nav cache: no new derivation observation. *)
      ignore (Engine.refine s node : int);
      Alcotest.(check int) "revisit counted" (r0 + 3) (Metrics.value refinements);
      Alcotest.(check int) "revisit not re-derived" (d0 + 1) (Metrics.count dh);
      (* The whole family is on the dump surface (/metrics, --metrics). *)
      let out = Engine.metrics_text engine in
      List.iter
        (fun sub -> Alcotest.(check bool) sub true (contains ~sub out))
        [
          "bionav_refinements_total 3";
          "bionav_refine_depth 1";
          "bionav_space_derivation_ms_descriptor_count 1";
          "bionav_space_derivation_ms_qualifier_count 1";
        ]

(* --- the metric-name table ------------------------------------------------ *)

(* The [bionav_*] names a /metrics body carries: a histogram renders as
   [name_count], [name_sum] and [name{quantile=...}] lines and counts once
   under [name]. *)
let names_of_dump text =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let token l =
    let stop c = match String.index_opt l c with Some i -> i | None -> String.length l in
    String.sub l 0 (min (stop ' ') (stop '{'))
  in
  let histograms =
    List.filter_map (fun l -> if String.contains l '{' then Some (token l) else None) lines
  in
  let derived = List.concat_map (fun h -> [ h ^ "_count"; h ^ "_sum" ]) histograms in
  List.map token lines
  |> List.filter (fun n -> not (List.mem n derived))
  |> List.filter (String.starts_with ~prefix:"bionav_")
  |> List.sort_uniq compare

(* The metric names listed in DESIGN.md §6: every table row whose first
   cell is a backquoted [bionav_*] name. *)
let documented_names () =
  let path = if Sys.file_exists "../DESIGN.md" then "../DESIGN.md" else "DESIGN.md" in
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let rec section inside = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"## " l ->
        section (String.starts_with ~prefix:"## 6." l) rest
    | l :: rest when inside && String.starts_with ~prefix:"| `bionav_" l ->
        let name = List.nth (String.split_on_char '`' l) 1 in
        name :: section inside rest
    | _ :: rest -> section inside rest
  in
  List.sort_uniq compare (section false lines)

(* Drive every engine surface a metric hangs off — a segment-store
   backend, the plan cache, the adaptive model, search, expand, show,
   refine, facet — then render /metrics through the web app: the
   registered names must be exactly DESIGN.md §6's table. *)
let test_metric_names_match_table () =
  let module Seg = Bionav_segstore in
  let module App = Bionav_web.App in
  let m = glioma_corpus () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bionav-metrics-%d" (Unix.getpid ()))
  in
  let remove_dir () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  remove_dir ();
  ignore (Seg.Ingest.ingest_medline ~dir m : Seg.Ingest.summary);
  let config =
    { Engine.default_config with
      Engine.segstore = Some (Seg.Store.spec dir);
      prefetch = Some Bionav_prefetch.Prefetch.default_config;
      adaptive = Some Bionav_adaptive.Adaptive.default_config }
  in
  let app =
    App.create ~config ~database:(Bionav_store.Database.of_medline m)
      ~eutils:(Bionav_search.Eutils.create m) ()
  in
  (match Engine.search (App.engine app) "glioma" with
  | Ok (Engine.Session s) ->
      let root = Nav_tree.root (Engine.session_nav s) in
      let node =
        match Engine.expand s root with
        | n :: _ -> n
        | [] -> Alcotest.fail "root expand revealed nothing"
      in
      ignore (Engine.show_results s node : Docset.t);
      ignore (Engine.refine s node : int);
      ignore (Engine.facet s : int)
  | Ok Engine.No_results | Error _ -> Alcotest.fail "seeded query found nothing");
  let body = (App.handle app ~path:"/metrics" ~query:[]).Bionav_web.Http.body in
  remove_dir ();
  let registered = names_of_dump body and documented = documented_names () in
  let missing = List.filter (fun n -> not (List.mem n documented)) registered in
  let stale = List.filter (fun n -> not (List.mem n registered)) documented in
  Alcotest.(check (list string)) "registered but not in DESIGN.md §6" [] missing;
  Alcotest.(check (list string)) "in DESIGN.md §6 but never registered" [] stale

let () =
  Alcotest.run "metrics"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "shared by name" `Quick test_counter_is_shared_by_name;
          Alcotest.test_case "rejects negative" `Quick test_counter_rejects_negative;
        ] );
      ( "gauges", [ Alcotest.test_case "set/get" `Quick test_gauge ] );
      ( "registry",
        [
          Alcotest.test_case "bad names" `Quick test_bad_names_rejected;
          Alcotest.test_case "kind clash" `Quick test_kind_clash_rejected;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "known percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "overflow bucket" `Quick test_histogram_overflow_bucket;
          Alcotest.test_case "bad buckets" `Quick test_histogram_rejects_bad_buckets;
        ] );
      ( "dump",
        [
          Alcotest.test_case "format" `Quick test_dump_format;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "domains",
        [
          Alcotest.test_case "counter exact across domains" `Quick
            test_counter_cross_domain_exact;
          Alcotest.test_case "histogram exact across domains" `Quick
            test_histogram_cross_domain_exact;
        ] );
      ( "spaces",
        [
          Alcotest.test_case "navigation-space instruments exact" `Quick
            test_navigation_space_metrics_exact;
        ] );
      ( "names",
        [ Alcotest.test_case "registered names equal the DESIGN table" `Quick
            test_metric_names_match_table ] );
    ]
