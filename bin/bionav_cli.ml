(* The BioNav command-line interface.

   The on-line system of the paper is a web application; this CLI drives the
   same stack interactively: a deterministic synthetic PubMed (hierarchy,
   corpus, associations, keyword index) with the paper's query workload
   planted in it, BioNav navigation sessions, and import/export of the
   MeSH-like hierarchy and the BioNav database. *)

open Cmdliner
open Bionav_util
open Bionav_core
module H = Bionav_mesh.Hierarchy
module FF = Bionav_mesh.Flat_file
module Medline = Bionav_corpus.Medline
module DB = Bionav_store.Database
module Codec = Bionav_store.Codec
module Eutils = Bionav_search.Eutils
module Engine = Bionav_engine.Engine
module Adaptive = Bionav_adaptive.Adaptive
module Seg = Bionav_segstore
module Q = Bionav_workload.Queries
module E = Bionav_workload.Experiment
module R = Bionav_workload.Report

(* --- shared options -------------------------------------------------- *)

let seed_arg =
  let doc = "Random seed for the deterministic synthetic corpus." in
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc = "Corpus scale: $(b,small) (fast, ~6k concepts) or $(b,full) (paper scale, ~48k)." in
  Arg.(value & opt (enum [ ("small", `Small); ("full", `Full) ]) `Small
       & info [ "scale" ] ~docv:"SCALE" ~doc)

let config_of = function `Small -> Q.small_config | `Full -> Q.default_config

let metrics_arg =
  let doc = "Dump the process metrics registry (counters, latency histograms) on exit." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let prefetch_arg =
  let doc =
    "Enable the cross-session plan cache: memoize EdgeCut plans so a repeat \
     session of a query is served cached cuts instead of rerunning the solver."
  in
  Arg.(value & flag & info [ "prefetch" ] ~doc)

let engine_config ~prefetch base =
  { base with
    Engine.prefetch =
      (if prefetch then Some Bionav_prefetch.Prefetch.default_config else None) }

let adaptive_arg =
  let doc =
    "Learn EXPLORE/EXPAND probabilities from navigation behaviour instead of the      paper's static estimates: sessions feed per-concept evidence and new sessions      are planned with the learned model."
  in
  Arg.(value & flag & info [ "adaptive" ] ~doc)

let half_life_arg =
  let doc =
    "Evidence half-life in milliseconds for $(b,--adaptive) (old behaviour decays      exponentially; omit for no decay)."
  in
  Arg.(value & opt (some float) None & info [ "adaptive-half-life-ms" ] ~docv:"MS" ~doc)

let with_adaptive ~adaptive ~half_life_ms base =
  if not adaptive then base
  else
    { base with
      Engine.adaptive =
        Some { Adaptive.default_config with Adaptive.half_life_ms } }

let segstore_arg =
  let doc =
    "Serve concept-citation associations from the out-of-core segment store in \
     $(docv) (built with the $(b,ingest) command over the same scale and seed) \
     instead of the in-memory table."
  in
  Arg.(value & opt (some string) None & info [ "segstore" ] ~docv:"DIR" ~doc)

let with_segstore segstore base =
  { base with Engine.segstore = Option.map Seg.Store.spec segstore }

let dump_metrics flag = if flag then print_string (Bionav_util.Metrics.dump ())

(* When an engine exists, dump through it so the engine-owned gauges (live
   sessions, docset resident bytes) are refreshed first. *)
let dump_engine_metrics flag engine =
  if flag then print_string (Engine.metrics_text engine)

let build_workload scale seed =
  Printf.printf "building the synthetic corpus (scale=%s, seed=%d)...\n%!"
    (match scale with `Small -> "small" | `Full -> "full")
    seed;
  Q.build ~config:(config_of scale) ~seed ()

(* --- stats ------------------------------------------------------------ *)

let stats_cmd =
  let run scale seed =
    let w = build_workload scale seed in
    let h = w.Q.hierarchy in
    let m = w.Q.medline in
    Printf.printf "hierarchy: %d concepts, height %d, max width %d\n" (H.size h) (H.height h)
      (H.max_width h);
    Printf.printf "corpus:    %d citations, %.1f concepts/citation, %d concepts populated\n"
      (Medline.size m) (Medline.mean_annotations m) (Medline.concepts_with_citations m);
    Printf.printf "database:  %d associations\n" (DB.n_associations w.Q.database);
    Printf.printf "queries:   %s\n"
      (String.concat ", " (List.map (fun q -> q.Q.spec.Q.name) w.Q.queries))
  in
  let doc = "Print statistics of the synthetic corpus and its seeded queries." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ scale_arg $ seed_arg)

(* --- queries (Table I) ------------------------------------------------ *)

let queries_cmd =
  let run scale seed =
    let w = build_workload scale seed in
    print_string (R.table1 w)
  in
  let doc = "Print the seeded query workload (the paper's Table I)." in
  Cmd.v (Cmd.info "queries" ~doc) Term.(const run $ scale_arg $ seed_arg)

(* --- search ------------------------------------------------------------ *)

let search_cmd =
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Keyword query.")
  in
  let limit_arg =
    Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Summaries to print.")
  in
  let run scale seed query limit =
    let w = build_workload scale seed in
    let ranked = Bionav_search.Ranked.build w.Q.medline in
    let result = Eutils.esearch w.Q.eutils query in
    Printf.printf "%d citations match %S (TF-IDF ranked)\n" (Docset.cardinal result) query;
    List.iter
      (fun (id, score) ->
        Printf.printf "  %5.2f [%d] %s\n" score id (List.hd (Eutils.esummary w.Q.eutils [ id ])))
      (Bionav_search.Ranked.search ~limit ranked query)
  in
  let doc = "Run a keyword query against the synthetic PubMed (ESearch + ESummary)." in
  Cmd.v (Cmd.info "search" ~doc) Term.(const run $ scale_arg $ seed_arg $ query_arg $ limit_arg)

(* --- navigate ---------------------------------------------------------- *)

let strategy_arg =
  let doc =
    "Navigation strategy: $(b,bionav), $(b,static), $(b,paged) (static with a 10-entry \
     'more' button), $(b,optimal), or $(b,faceted) (start in the qualifier-facet space)."
  in
  Arg.(value
       & opt
           (enum
              [ ("bionav", `Bionav); ("static", `Static); ("paged", `Paged);
                ("optimal", `Optimal); ("faceted", `Faceted) ])
           `Bionav
       & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let strategy_of = function
  | `Bionav -> Navigation.bionav ()
  | `Static -> Navigation.Static
  | `Paged -> Navigation.Static_paged { page_size = 10 }
  | `Optimal -> Navigation.optimal ()
  | `Faceted -> Navigation.faceted ()

let render_numbered active nav =
  let visible = Active_tree.visible active in
  List.iteri
    (fun i v ->
      let rec vis_depth j =
        match Active_tree.visible_parent active j with -1 -> 0 | p -> 1 + vis_depth p
      in
      Printf.printf "%3d %s%s (%d)%s\n" i
        (String.make (2 * vis_depth v) ' ')
        (Nav_tree.label nav v)
        (Active_tree.component_distinct active v)
        (if Active_tree.is_expandable active v then " >>>" else ""))
    visible;
  visible

(* The loop drives the engine session, not a bare [Navigation.t]: refine,
   unrefine and facet swap the live navigation space under us, so every
   iteration re-reads the top frame's tree. Events are accumulated by hand
   (a [Session_log.record]er is bound to one space). *)
let interactive_loop ?record s eutils =
  let rev_events = ref [] in
  let log e = rev_events := e :: !rev_events in
  let help () =
    print_string
      "commands: x <i> = EXPAND node i | s <i> = SHOWRESULTS | b = BACKTRACK\n\
      \          r <i> = REFINE to node i's subtree | u = undo refine\n\
      \          f = qualifier facets of the current space | q = quit\n"
  in
  help ();
  let quit = ref false in
  while not !quit do
    print_string "\n";
    let nav = Engine.session_nav s in
    let active = Navigation.active (Engine.navigation s) in
    Printf.printf "space: %s (depth %d, %d results)\n" (Engine.space_id s)
      (Engine.refine_depth s)
      (Nav_tree.distinct_results nav);
    let visible = render_numbered active nav in
    let with_node i f =
      match int_of_string_opt i with
      | Some i when i >= 0 && i < List.length visible -> f (List.nth visible i)
      | Some _ | None -> print_string "no such node\n"
    in
    print_string "> ";
    match In_channel.input_line stdin with
    | None -> quit := true
    | Some line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ "q" ] -> quit := true
        | [ "b" ] ->
            if Engine.backtrack s then log Session_log.Backtracked
            else print_string "nothing to undo\n"
        | [ "u" ] ->
            if Engine.unrefine s then begin
              log Session_log.Unrefined;
              Printf.printf "back to space %s\n" (Engine.space_id s)
            end
            else print_string "no refinement to undo\n"
        | [ "f" ] -> (
            match Engine.facet s with
            | pages ->
                log Session_log.Faceted;
                Printf.printf "faceted into %d qualifier page(s)\n" pages
            | exception Invalid_argument msg -> Printf.printf "error: %s\n" msg)
        | [ "x"; i ] ->
            with_node i (fun node ->
                let revealed = Engine.expand s node in
                if revealed <> [] then
                  log
                    (Session_log.Expanded
                       { concept = Nav_tree.concept_id nav node;
                         revealed = List.map (Nav_tree.concept_id nav) revealed });
                Printf.printf "revealed %d concept(s)\n" (List.length revealed))
        | [ "r"; i ] ->
            with_node i (fun node ->
                let concept = Nav_tree.concept_id nav node in
                match Engine.refine s node with
                | n ->
                    log (Session_log.Refined { concept });
                    Printf.printf "refined to %d result(s) in space %s\n" n
                      (Engine.space_id s)
                | exception Invalid_argument msg -> Printf.printf "error: %s\n" msg)
        | [ "s"; i ] ->
            with_node i (fun node ->
                let citations = Engine.show_results s node in
                log
                  (Session_log.Shown
                     { concept = Nav_tree.concept_id nav node;
                       n_listed = Docset.cardinal citations });
                Printf.printf "%d citations:\n" (Docset.cardinal citations);
                List.iteri
                  (fun j id ->
                    if j < 10 then
                      Printf.printf "  %s\n" (List.hd (Eutils.esummary eutils [ id ])))
                  (Docset.elements citations))
        | _ -> help ())
  done;
  (match record with
  | None -> ()
  | Some path ->
      (* v2: per-action outcomes, the format [bionav learn] feeds on.
         [--replay] reads either version. *)
      Session_log.save_events (List.rev !rev_events) path;
      Printf.printf "transcript written to %s\n" path);
  let stats = Navigation.stats (Engine.navigation s) in
  Printf.printf "session cost in space %s: %d (EXPANDs %d, concepts %d, citations %d)\n"
    (Engine.space_id s) (Navigation.total_cost stats) stats.Navigation.expands
    stats.Navigation.revealed stats.Navigation.results_listed

let navigate_cmd =
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Keyword query.")
  in
  let auto_arg =
    let doc = "Navigate automatically (oracle user) to the concept with this exact label." in
    Arg.(value & opt (some string) None & info [ "auto" ] ~docv:"LABEL" ~doc)
  in
  let record_arg =
    let doc = "Write the session transcript to this file on quit." in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc = "Apply a recorded transcript before the interactive loop." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let rec run scale seed query strategy auto record replay prefetch segstore adaptive
      half_life_ms metrics =
    (* The Optimal strategy is exponential and guarded to tiny components;
       surface its Invalid_argument as a clean error instead of a crash. *)
    try
      run_navigate scale seed query strategy auto record replay prefetch segstore adaptive
        half_life_ms metrics
    with Invalid_argument msg ->
      Printf.printf "error: %s\n" msg;
      Printf.printf "(the 'optimal' strategy only handles components of <= %d nodes;\n"
        Bionav_core.Opt_edgecut.max_size;
      Printf.printf " use --strategy bionav for real queries)\n";
      exit 1
  and run_navigate scale seed query strategy auto record replay prefetch segstore adaptive
      half_life_ms metrics =
    let w = build_workload scale seed in
    let engine =
      Engine.create
        ~config:
          (with_adaptive ~adaptive ~half_life_ms
             (with_segstore segstore (engine_config ~prefetch Engine.default_config)))
        ~database:w.Q.database ~eutils:w.Q.eutils ()
    in
    match Engine.search engine ~strategy:(strategy_of strategy) query with
    | Error msg ->
        Printf.printf "error: %s\n" msg;
        exit 1
    | Ok Engine.No_results ->
        Printf.printf "no results for %S\n" query;
        exit 1
    | Ok (Engine.Session s) -> (
        let nav = Engine.session_nav s in
        Printf.printf "%d citations; navigation tree: %d concept nodes\n\n"
          (Nav_tree.distinct_results nav)
          (Nav_tree.size nav - 1);
        (match auto with
        | None ->
            (match replay with
            | None -> ()
            | Some path ->
                let outcome =
                  Session_log.replay (Engine.navigation s) (Session_log.load path)
                in
                Printf.printf "replayed %s: %d applied, %d skipped\n" path
                  outcome.Session_log.applied outcome.Session_log.skipped);
            interactive_loop ?record s w.Q.eutils
        | Some label -> (
            match H.find_by_label w.Q.hierarchy label with
            | None ->
                Printf.printf "no concept labelled %S\n" label;
                exit 1
            | Some concept -> (
                match Nav_tree.node_of_concept nav concept with
                | None ->
                    Printf.printf "concept %S holds no results of this query\n" label;
                    exit 1
                | Some target ->
                    let outcome = Simulate.to_target (Engine.navigation s) ~target in
                    List.iter
                      (fun (r : Navigation.expand_record) ->
                        Printf.printf "EXPAND on %S: %d revealed (%.2f ms)\n"
                          (Nav_tree.label nav r.Navigation.node)
                          r.Navigation.n_revealed r.Navigation.elapsed_ms)
                      outcome.Simulate.history;
                    Printf.printf
                      "\nreached %S: cost %d (%d EXPANDs + %d concepts examined)\n" label
                      outcome.Simulate.navigation_cost outcome.Simulate.expands
                      outcome.Simulate.revealed)));
        dump_engine_metrics metrics engine)
  in
  let doc = "Navigate the results of a query (interactively, or --auto to a target)." in
  Cmd.v
    (Cmd.info "navigate" ~doc)
    Term.(
      const run $ scale_arg $ seed_arg $ query_arg $ strategy_arg $ auto_arg $ record_arg
      $ replay_arg $ prefetch_arg $ segstore_arg $ adaptive_arg $ half_life_arg
      $ metrics_arg)

(* --- experiment --------------------------------------------------------- *)

let experiment_cmd =
  let run scale seed metrics =
    let w = build_workload scale seed in
    let runs = E.run_all w in
    print_string (R.table1 w);
    print_string (R.fig8 runs);
    print_string (R.fig9 runs);
    print_string (R.fig10 runs);
    print_string (R.fig11 (List.hd runs));
    print_string (R.space_table (E.refinement_vs_topdown w));
    dump_metrics metrics
  in
  let doc =
    "Run the full evaluation (Table I, Figs. 8-11, navigation spaces) on the seeded \
     workload."
  in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ scale_arg $ seed_arg $ metrics_arg)

(* --- serve --------------------------------------------------------------- *)

let serve_cmd =
  let port_arg =
    Arg.(value & opt int 8080 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on.")
  in
  let max_sessions_arg =
    let doc = "Bound on live navigation sessions (LRU-evicted beyond it)." in
    Arg.(value & opt int Engine.default_config.Engine.max_sessions
         & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let snapshot_arg =
    let doc = "Warm-start from this snapshot file (see the $(b,warm) command)." in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let backlog_arg =
    let doc = "Listen backlog passed to the kernel accept queue." in
    Arg.(value & opt int Bionav_web.Http.default_server_config.Bionav_web.Http.backlog
         & info [ "backlog" ] ~docv:"N" ~doc)
  in
  let max_connections_arg =
    let doc = "Cap on concurrently open connections; accepts beyond it are shed with a 503." in
    Arg.(value
         & opt int Bionav_web.Http.default_server_config.Bionav_web.Http.max_connections
         & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let keep_alive_arg =
    let doc =
      "Allow HTTP keep-alive connection reuse. $(b,--keep-alive=false) forces \
       Connection: close on every response."
    in
    Arg.(value
         & opt bool Bionav_web.Http.default_server_config.Bionav_web.Http.keep_alive
         & info [ "keep-alive" ] ~docv:"BOOL" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Close a keep-alive connection after this many milliseconds with no request in \
       progress (0 disables)."
    in
    Arg.(value
         & opt float Bionav_web.Http.default_server_config.Bionav_web.Http.idle_timeout_ms
         & info [ "idle-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_requests_per_conn_arg =
    let doc = "Requests served on one connection before the server forces a close." in
    Arg.(value
         & opt int
             Bionav_web.Http.default_server_config.Bionav_web.Http.max_requests_per_conn
         & info [ "max-requests-per-conn" ] ~docv:"N" ~doc)
  in
  let rate_limit_arg =
    let doc =
      "Per-client admission rate in requests/second (token bucket per remote address; \
       excess answered 503). 0 disables."
    in
    Arg.(value
         & opt float Bionav_web.Http.default_server_config.Bionav_web.Http.rate_limit
         & info [ "rate-limit" ] ~docv:"RPS" ~doc)
  in
  let expand_budget_arg =
    let doc =
      "Per-EXPAND time budget in milliseconds; once exhausted, sessions degrade to a \
       static-style cut instead of running the solver."
    in
    Arg.(value & opt (some float) None & info [ "expand-budget-ms" ] ~docv:"MS" ~doc)
  in
  let run scale seed port max_sessions prefetch snapshot backlog max_connections
      expand_budget_ms segstore adaptive half_life_ms keep_alive idle_timeout_ms
      max_requests_per_conn rate_limit =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info);
    let w = build_workload scale seed in
    let app =
      (* A corrupt, mismatched, or missing snapshot (or segment store) is
         a clean startup error, not a crash. *)
      try
        Bionav_web.App.create
          ~suggestions:(List.map (fun q -> q.Q.spec.Q.name) w.Q.queries)
          ~config:
            (with_adaptive ~adaptive ~half_life_ms
               (with_segstore segstore
                  (engine_config ~prefetch
                     { Engine.default_config with Engine.max_sessions; expand_budget_ms })))
          ?snapshot ~database:w.Q.database ~eutils:w.Q.eutils ()
      with (Invalid_argument msg | Sys_error msg) ->
        Printf.printf "error: %s\n" msg;
        Printf.printf "(rebuild the snapshot with: bionav warm <FILE>;\n";
        Printf.printf " rebuild the segment store with: bionav ingest <DIR>)\n";
        exit 1
    in
    Printf.printf "serving on http://127.0.0.1:%d (Ctrl-C to stop)\n%!" port;
    Printf.printf "metrics at http://127.0.0.1:%d/metrics\n%!" port;
    if prefetch then
      Printf.printf "prefetch status at http://127.0.0.1:%d/prefetch\n%!" port;
    if adaptive then
      Printf.printf "adaptive-model status at http://127.0.0.1:%d/adaptive\n%!" port;
    let config =
      { Bionav_web.Http.default_server_config with Bionav_web.Http.backlog;
        max_connections; keep_alive; idle_timeout_ms; max_requests_per_conn;
        rate_limit }
    in
    Bionav_web.Http.serve ~config ~port (Bionav_web.App.handle app)
  in
  let doc = "Serve the BioNav web interface over the synthetic corpus." in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ scale_arg $ seed_arg $ port_arg $ max_sessions_arg $ prefetch_arg
      $ snapshot_arg $ backlog_arg $ max_connections_arg $ expand_budget_arg
      $ segstore_arg $ adaptive_arg $ half_life_arg $ keep_alive_arg $ idle_timeout_arg
      $ max_requests_per_conn_arg $ rate_limit_arg)

(* --- ingest -------------------------------------------------------------- *)

let ingest_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"Segment-store output directory (created if absent; must not already hold \
                   a store).")
  in
  let run_budget_arg =
    let doc = "In-memory run buffer capacity in (concept, citation) pairs — the ingest \
               memory bound." in
    Arg.(value & opt int Seg.Ingest.default_config.Seg.Ingest.run_budget_pairs
         & info [ "run-budget" ] ~docv:"PAIRS" ~doc)
  in
  let segment_max_arg =
    let doc = "Rolling segment cut threshold in bytes." in
    Arg.(value & opt int Seg.Ingest.default_config.Seg.Ingest.segment_max_bytes
         & info [ "segment-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let run scale seed dir run_budget_pairs segment_max_bytes =
    let w = build_workload scale seed in
    let config = { Seg.Ingest.run_budget_pairs; segment_max_bytes } in
    let t0 = Unix.gettimeofday () in
    let s =
      (* A directory that already holds a store is refused rather than
         overwritten in place. *)
      try Seg.Ingest.ingest_medline ~config ~dir w.Q.medline
      with Invalid_argument msg ->
        Printf.printf "error: %s\n" msg;
        exit 1
    in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf
      "ingested %d citations (%d associations) into %s in %.2fs\n"
      s.Seg.Ingest.n_citations s.Seg.Ingest.n_associations dir dt;
    Printf.printf "  %d segment(s), %.1f MiB on disk, %d sorted run(s) spilled\n"
      s.Seg.Ingest.n_segments
      (float_of_int s.Seg.Ingest.bytes /. 1048576.)
      s.Seg.Ingest.runs_spilled;
    Printf.printf "serve it with: bionav serve --scale %s --seed %d --segstore %s\n"
      (match scale with `Small -> "small" | `Full -> "full")
      seed dir
  in
  let doc =
    "Bulk-ingest the synthetic corpus into an out-of-core segment store (compressed, \
     mmap-backed posting lists; bounded-memory external sort). Use the same scale and \
     seed when serving from it."
  in
  Cmd.v
    (Cmd.info "ingest" ~doc)
    Term.(const run $ scale_arg $ seed_arg $ dir_arg $ run_budget_arg $ segment_max_arg)

(* --- warm ---------------------------------------------------------------- *)

let warm_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Snapshot output path.")
  in
  let top_arg =
    let doc = "Warm the top $(docv) workload queries (most popular first)." in
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run scale seed path top =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info);
    let w = build_workload scale seed in
    let engine =
      Engine.create
        ~config:(engine_config ~prefetch:true Engine.default_config)
        ~database:w.Q.database ~eutils:w.Q.eutils ()
    in
    (* The workload list is popularity-ordered (the bench draws from it
       Zipf-style), so its head is exactly what repeat traffic hits. *)
    let queries =
      List.filteri (fun i _ -> i < top) (List.map (fun q -> q.Q.keyword) w.Q.queries)
    in
    let entries = Engine.warm engine queries in
    Engine.save_snapshot engine entries path;
    Printf.printf "warmed %d quer%s; snapshot written to %s\n" (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      path
  in
  let doc =
    "Precompute navigation trees and root EdgeCuts for the top workload queries and save \
     them as a warm-start snapshot (load with $(b,serve --snapshot))."
  in
  Cmd.v (Cmd.info "warm" ~doc) Term.(const run $ scale_arg $ seed_arg $ path_arg $ top_arg)

(* --- learn --------------------------------------------------------------- *)

let learn_cmd =
  let logs_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"LOG" ~doc:"Session transcript file(s) (see navigate --record).")
  in
  let run half_life_ms paths =
    let ad = Adaptive.create ~config:{ Adaptive.default_config with Adaptive.half_life_ms } () in
    let failed = ref false in
    List.iter
      (fun path ->
        match Session_log.load_events path with
        | events ->
            Adaptive.learn ad events;
            Printf.printf "learned from %s: %d event(s)\n" path (List.length events)
        | exception (Invalid_argument msg | Sys_error msg) ->
            Printf.printf "error: %s: %s\n" path msg;
            failed := true)
      paths;
    print_newline ();
    print_string (Adaptive.status_text ad);
    if !failed then exit 1
  in
  let doc =
    "Bulk-learn EXPLORE/EXPAND evidence from recorded session transcripts and print the      resulting model (per-concept evidence and EXPLORE lifts)."
  in
  Cmd.v (Cmd.info "learn" ~doc) Term.(const run $ half_life_arg $ logs_arg)

(* --- export / import ---------------------------------------------------- *)

let mesh_export_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Output path.")
  in
  let run scale seed path =
    let w = build_workload scale seed in
    FF.save w.Q.hierarchy path;
    Printf.printf "wrote %d concepts to %s\n" (H.size w.Q.hierarchy - 1) path
  in
  let doc = "Export the hierarchy in the MeSH-flat-file-like text format." in
  Cmd.v (Cmd.info "mesh-export" ~doc) Term.(const run $ scale_arg $ seed_arg $ path_arg)

let db_export_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Output path.")
  in
  let run scale seed path =
    let w = build_workload scale seed in
    Codec.save w.Q.database path;
    Printf.printf "wrote the BioNav database to %s\n" path
  in
  let doc = "Export the BioNav database (hierarchy + associations) as binary." in
  Cmd.v (Cmd.info "db-export" ~doc) Term.(const run $ scale_arg $ seed_arg $ path_arg)

let db_info_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Database file.")
  in
  let run path =
    let db = Codec.load path in
    let h = DB.hierarchy db in
    Printf.printf "hierarchy: %d concepts, height %d\n" (H.size h) (H.height h);
    Printf.printf "citations: %d\n" (DB.n_citations db);
    Printf.printf "associations: %d\n" (DB.n_associations db)
  in
  let doc = "Inspect an exported BioNav database file." in
  Cmd.v (Cmd.info "db-info" ~doc) Term.(const run $ path_arg)

(* ------------------------------------------------------------------------ *)

let () =
  let doc = "BioNav: cost-optimized navigation of query results over a concept hierarchy" in
  let info = Cmd.info "bionav" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            stats_cmd; queries_cmd; search_cmd; navigate_cmd; experiment_cmd; serve_cmd;
            ingest_cmd; warm_cmd; learn_cmd; mesh_export_cmd; db_export_cmd; db_info_cmd;
          ]))
