open Bionav_util
open Bionav_core
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module DB = Bionav_store.Database
module Eu = Bionav_search.Eutils
module Engine = Bionav_engine.Engine
module Clock = Bionav_resilience.Clock
module Deadline = Bionav_resilience.Deadline
module Q = Bionav_workload.Queries

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* A small corpus with a seeded, findable query word. *)
let world =
  lazy
    (let h = S.generate ~params:S.small_params ~seed:211 () in
     let deep =
       List.filter (fun c -> Bionav_mesh.Hierarchy.depth h c >= 3)
         (List.init (Bionav_mesh.Hierarchy.size h) Fun.id)
     in
     let params =
       {
         G.small_params with
         G.n_citations = 500;
         seeded_groups =
           [
             {
               G.tag = Some "cancer";
               cluster = [ List.nth deep 0; List.nth deep 7 ];
               count = 60;
               topics_per_citation = (1, 2);
             };
           ];
       }
     in
     let m = G.generate ~params ~seed:212 h in
     (DB.of_medline m, Eu.create m))

let engine ?config () =
  let database, eutils = Lazy.force world in
  Engine.create ?config ~database ~eutils ()

let must_session = function
  | Ok (Engine.Session s) -> s
  | Ok Engine.No_results -> Alcotest.fail "unexpected No_results"
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

(* --- strategy validation ---------------------------------------------- *)

let test_validate_strategy () =
  Alcotest.(check bool) "paged 0 rejected" true
    (Result.is_error (Engine.validate_strategy (Navigation.Static_paged { page_size = 0 })));
  Alcotest.(check bool) "paged -3 rejected" true
    (Result.is_error (Engine.validate_strategy (Navigation.Static_paged { page_size = -3 })));
  Alcotest.(check bool) "paged 1 ok" true
    (Result.is_ok (Engine.validate_strategy (Navigation.Static_paged { page_size = 1 })));
  Alcotest.(check bool) "static ok" true (Result.is_ok (Engine.validate_strategy Navigation.Static))

let test_strategy_of_name () =
  Alcotest.(check bool) "default is bionav" true (Result.is_ok (Engine.strategy_of_name None));
  List.iter
    (fun n ->
      Alcotest.(check bool) n true (Result.is_ok (Engine.strategy_of_name (Some n))))
    [ "bionav"; "static"; "paged"; "optimal"; "faceted" ];
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Engine.strategy_of_name (Some "wat")));
  Alcotest.(check bool) "paged with bad size rejected" true
    (Result.is_error (Engine.strategy_of_name ~page_size:0 (Some "paged")))

let test_start_validates () =
  let nav =
    let h = Bionav_mesh.Hierarchy.of_parents [| -1; 0 |] in
    Nav_tree.build ~hierarchy:h
      ~attachments:[ (1, Docset.of_list [ 1; 2; 3 ]) ]
      ~total_count:(fun _ -> 10)
  in
  Alcotest.(check bool) "bad strategy raises" true
    (try
       ignore (Engine.start (Navigation.Static_paged { page_size = 0 }) nav);
       false
     with Invalid_argument _ -> true);
  let session = Engine.start Navigation.Static nav in
  Alcotest.(check bool) "good strategy starts" true
    (Active_tree.is_visible (Navigation.active session) (Nav_tree.root nav))

(* --- search ------------------------------------------------------------ *)

let test_search_errors () =
  let t = engine () in
  Alcotest.(check bool) "blank query" true (Result.is_error (Engine.search t "   "));
  Alcotest.(check bool) "invalid strategy" true
    (Result.is_error
       (Engine.search t ~strategy:(Navigation.Static_paged { page_size = 0 }) "cancer"));
  Alcotest.(check int) "no sessions created" 0 (Engine.session_count t)

let test_search_no_results () =
  let t = engine () in
  (match Engine.search t "zzzznotaword" with
  | Ok Engine.No_results -> ()
  | _ -> Alcotest.fail "expected No_results");
  Alcotest.(check int) "no session" 0 (Engine.session_count t)

let test_search_creates_sessions_with_monotonic_ids () =
  let t = engine () in
  let s0 = must_session (Engine.search t "cancer") in
  let s1 = must_session (Engine.search t "cancer") in
  Alcotest.(check string) "first id" "s0" (Engine.session_id s0);
  Alcotest.(check string) "second id" "s1" (Engine.session_id s1);
  Alcotest.(check int) "two live" 2 (Engine.session_count t);
  Alcotest.(check bool) "lookup works" true
    (match Engine.find_session t "s0" with Some _ -> true | None -> false)

(* Query answers are values the index does not keep: 100 distinct
   two-word searches, each session closed, leave the words reachable
   from the inverted index exactly where they were. *)
let test_search_retains_nothing_in_index () =
  let t = engine () in
  let eutils = Engine.eutils t in
  let index = Eu.index eutils in
  let queries = Hashtbl.create 128 in
  Array.iter
    (fun c ->
      match Bionav_search.Tokenizer.unique_tokens c.Bionav_corpus.Citation.title with
      | a :: b :: _ when Hashtbl.length queries < 100 -> Hashtbl.replace queries (a ^ " " ^ b) ()
      | _ -> ())
    (Bionav_corpus.Medline.citations (Eu.medline eutils));
  Alcotest.(check int) "100 distinct queries" 100 (Hashtbl.length queries);
  let before = Obj.reachable_words (Obj.repr index) in
  let sessions = ref 0 in
  Hashtbl.iter
    (fun q () ->
      match Engine.search t q with
      | Ok (Engine.Session s) ->
          incr sessions;
          ignore (Engine.close t (Engine.session_id s) : bool)
      | Ok Engine.No_results -> ()
      | Error e -> Alcotest.fail e)
    queries;
  Alcotest.(check bool) "queries found results" true (!sessions > 50);
  Alcotest.(check int) "all closed" 0 (Engine.session_count t);
  Alcotest.(check int) "index words unchanged" before (Obj.reachable_words (Obj.repr index))

(* --- bounded store / LRU ------------------------------------------------ *)

let small_config = { Engine.default_config with Engine.max_sessions = 3 }

let test_eviction_bound () =
  let t = engine ~config:small_config () in
  for _ = 1 to 3 do
    ignore (must_session (Engine.search t "cancer"))
  done;
  Alcotest.(check int) "at capacity" 3 (Engine.session_count t);
  Alcotest.(check int) "no evictions yet" 0 (Engine.eviction_count t);
  (* The N+1st session evicts exactly one. *)
  ignore (must_session (Engine.search t "cancer"));
  Alcotest.(check int) "still at capacity" 3 (Engine.session_count t);
  Alcotest.(check int) "exactly one eviction" 1 (Engine.eviction_count t);
  (* The count never exceeds the bound no matter how many more arrive. *)
  for _ = 1 to 10 do
    ignore (must_session (Engine.search t "cancer"));
    Alcotest.(check bool) "bounded" true (Engine.session_count t <= 3)
  done;
  Alcotest.(check int) "eviction per overflow" 11 (Engine.eviction_count t)

let test_eviction_is_lru () =
  let t = engine ~config:small_config () in
  ignore (must_session (Engine.search t "cancer")) (* s0 *);
  ignore (must_session (Engine.search t "cancer")) (* s1 *);
  ignore (must_session (Engine.search t "cancer")) (* s2 *);
  (* Touch s0 so s1 becomes the least recently used. *)
  ignore (Engine.find_session t "s0");
  ignore (must_session (Engine.search t "cancer")) (* s3: evicts s1 *);
  Alcotest.(check bool) "s0 survives" true (Option.is_some (Engine.find_session t "s0"));
  Alcotest.(check bool) "s1 evicted" true (Option.is_none (Engine.find_session t "s1"));
  Alcotest.(check bool) "s2 survives" true (Option.is_some (Engine.find_session t "s2"))

let test_close () =
  let t = engine () in
  let s = must_session (Engine.search t "cancer") in
  Alcotest.(check bool) "close" true (Engine.close t (Engine.session_id s));
  Alcotest.(check int) "gone" 0 (Engine.session_count t);
  Alcotest.(check bool) "double close" false (Engine.close t (Engine.session_id s));
  Alcotest.(check bool) "unknown id" false (Engine.close t "nope")

let test_ttl_sweep () =
  let clock = Clock.simulated () in
  let config =
    { Engine.default_config with Engine.session_ttl_ms = Some 1000.; clock }
  in
  let t = engine ~config () in
  ignore (must_session (Engine.search t "cancer"));
  ignore (must_session (Engine.search t "cancer"));
  Alcotest.(check int) "fresh sessions survive" 0 (Engine.sweep t);
  Clock.advance clock 10_000.;
  Alcotest.(check int) "idle sessions expire" 2 (Engine.sweep t);
  Alcotest.(check int) "store empty" 0 (Engine.session_count t)

let test_ttl_touch_refreshes () =
  let clock = Clock.simulated () in
  let config =
    { Engine.default_config with Engine.session_ttl_ms = Some 1000.; clock }
  in
  let t = engine ~config () in
  let s = must_session (Engine.search t "cancer") in
  Clock.advance clock 900.;
  (* A lookup refreshes the idle clock, so the session survives a sweep
     that would otherwise have expired it. *)
  ignore (Engine.find_session t (Engine.session_id s));
  Clock.advance clock 900.;
  Alcotest.(check int) "touched session survives" 0 (Engine.sweep t);
  Clock.advance clock 200.;
  Alcotest.(check int) "then expires once idle" 1 (Engine.sweep t)

let test_sweep_without_ttl () =
  let clock = Clock.simulated () in
  let t = engine ~config:{ Engine.default_config with Engine.clock = clock } () in
  ignore (must_session (Engine.search t "cancer"));
  Clock.advance clock 1e12;
  Alcotest.(check int) "no ttl, no expiry" 0 (Engine.sweep t);
  Alcotest.(check int) "session kept" 1 (Engine.session_count t)

(* --- cache normalization ------------------------------------------------ *)

let test_query_normalization_shares_cache () =
  let t = engine () in
  let a = must_session (Engine.search t "  Cancer ") in
  let b = must_session (Engine.search t "cancer") in
  Alcotest.(check bool) "one tree, shared" true (Engine.session_nav a == Engine.session_nav b);
  Alcotest.(check bool) "hit rate reflects the hit" true (Engine.cache_hit_rate t >= 0.5)

(* --- navigation actions and metrics ------------------------------------- *)

let test_navigation_populates_metrics () =
  Metrics.reset ();
  let t = engine () in
  let s = must_session (Engine.search t "cancer") in
  let nav = Engine.session_nav s in
  let revealed = Engine.expand s (Nav_tree.root nav) in
  Alcotest.(check bool) "expand reveals" true (revealed <> []);
  Alcotest.(check bool) "backtrack undoes" true (Engine.backtrack s);
  Alcotest.(check bool) "expands counted" true
    (Metrics.value (Metrics.counter "bionav_expands_total") >= 1);
  Alcotest.(check bool) "latency observed" true
    (Metrics.count (Metrics.histogram "bionav_expand_latency_ms") >= 1);
  Alcotest.(check bool) "session counted" true
    (Metrics.value (Metrics.counter "bionav_sessions_started_total") >= 1);
  let text = Engine.metrics_text t in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains ~sub text))
    [
      "bionav_expands_total";
      "bionav_expand_latency_ms_count";
      "bionav_expand_latency_ms{quantile=\"0.5\"}";
      "bionav_sessions_live 1";
      "bionav_cache_misses_total";
    ]

let test_show_results_returns_citations () =
  let t = engine () in
  let s = must_session (Engine.search t "cancer") in
  let nav = Engine.session_nav s in
  let citations = Engine.show_results s (Nav_tree.root nav) in
  Alcotest.(check bool) "nonempty" true (not (Docset.is_empty citations))

(* --- the entry guard and ownership handoff --------------------------------- *)

let expandable_root s =
  let root = Nav_tree.root (Engine.session_nav s) in
  Alcotest.(check bool) "root expandable" true
    (Active_tree.is_expandable (Navigation.active (Engine.navigation s)) root);
  root

(* A nested operation must fail loudly rather than run against a store
   the outer operation is still mutating; the outer operation must still
   release the guard, so the session keeps working. *)
let test_reentrant_run_locked () =
  let t = engine () in
  let s = must_session (Engine.search t "cancer") in
  let raised =
    Engine.run_locked s (fun () ->
        match Engine.run_locked s (fun () -> ()) with
        | () -> false
        | exception Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "nested run_locked raises Invalid_argument" true raised;
  ignore (Engine.expand s (expandable_root s) : int list);
  Alcotest.(check bool) "session usable after failed re-entry" true (Engine.backtrack s);
  Alcotest.(check bool) "run_locked usable again" true (Engine.run_locked s (fun () -> true))

(* Another domain entering while an operation is inside is the race the
   guard exists for: it must be refused, not serialized or let through. *)
let test_second_domain_refused () =
  let t = engine () in
  let s = must_session (Engine.search t "cancer") in
  let root = expandable_root s in
  let refused =
    Engine.run_locked s (fun () ->
        Domain.join
          (Domain.spawn (fun () ->
               match Engine.expand s root with
               | (_ : int list) -> false
               | exception Invalid_argument _ -> true)))
  in
  Alcotest.(check bool) "expand from a second domain raises Invalid_argument" true refused;
  Alcotest.(check int) "the refused expand changed nothing" 0
    (Navigation.stats (Engine.navigation s)).Navigation.expands

(* Ownership is not tied to a domain: once an operation has left, any
   domain may enter next, as a server domain started after set-up does. *)
let test_sequential_handoff () =
  let t = engine () in
  let sid =
    Domain.join
      (Domain.spawn (fun () ->
           let s = must_session (Engine.search t "cancer") in
           ignore (Engine.expand s (expandable_root s) : int list);
           Engine.session_id s))
  in
  let s =
    match Engine.find_session t sid with
    | Some s -> s
    | None -> Alcotest.fail "session created on the other domain is gone"
  in
  Alcotest.(check int) "expand from the other domain counted" 1
    (Navigation.stats (Engine.navigation s)).Navigation.expands;
  Alcotest.(check bool) "backtrack on the first domain" true (Engine.backtrack s);
  let s' = must_session (Engine.search t "cancer") in
  ignore (Engine.expand s' (expandable_root s') : int list);
  Alcotest.(check int) "both sessions live" 2 (Engine.session_count t)

let small_workload = lazy (Q.build ~config:Q.small_config ~seed:11 ())

(* A Zipf serving workload: small corpus (seed 11), 24 sessions drawn
   Zipf(1.0) from [Rng.create 42], each an oracle navigation to its
   target under [run_locked], after the tree cache is warmed. The EXPAND
   total is deterministic, and the expand-latency histogram must account
   for every one of them — no EXPAND lost or recorded twice. *)
let test_zipf_replay_conserves_expands () =
  let w = Lazy.force small_workload in
  let queries = Array.of_list w.Q.queries in
  let zipf = Zipf.create ~exponent:1.0 (Array.length queries) in
  let rng = Rng.create 42 in
  let draws = Array.init 24 (fun _ -> Zipf.draw zipf rng) in
  let t = Engine.create ~database:w.Q.database ~eutils:w.Q.eutils () in
  ignore
    (Engine.warm t (Array.to_list (Array.map (fun q -> q.Q.keyword) queries))
      : Bionav_store.Snapshot.entry list);
  let hist = Metrics.histogram "bionav_expand_latency_ms" in
  let before = Metrics.count hist in
  let expands =
    Array.fold_left
      (fun acc d ->
        let q = queries.(d) in
        match Engine.search t q.Q.keyword with
        | Ok (Engine.Session s) ->
            let n =
              Engine.run_locked s (fun () ->
                  let nav = Engine.navigation s in
                  ignore (Simulate.to_target nav ~target:q.Q.target_node);
                  (Navigation.stats nav).Navigation.expands)
            in
            ignore (Engine.close t (Engine.session_id s) : bool);
            acc + n
        | Ok Engine.No_results -> acc
        | Error e -> Alcotest.fail ("search failed: " ^ e))
      0 draws
  in
  Alcotest.(check int) "EXPAND total of the 24-session workload" 57 expands;
  Alcotest.(check int) "histogram grew by every EXPAND" expands (Metrics.count hist - before);
  Alcotest.(check int) "all sessions closed" 0 (Engine.session_count t)

(* --- seeded replay ----------------------------------------------------- *)

(* Seeded traffic against one engine on a simulated clock, folded into a
   trace: Zipf(1.0)-drawn workload queries with junk ones mixed in, and
   per session a seeded mix of EXPANDs of visible expandable nodes and
   BACKTRACKs before the close. A one-tree cache keeps rebuilding trees,
   the plan cache serves repeat components and every EXPAND runs under a
   50 ms budget. Any exception an engine call lets out is recorded and
   counted, never raised. *)
let replay_traffic ~seed ~sessions =
  let w = Lazy.force small_workload in
  let queries = Array.of_list w.Q.queries in
  let junk = [| ""; "   "; "zzzznotaword"; "%00\x01\xff"; String.make 300 'q' |] in
  let config =
    {
      Engine.default_config with
      Engine.clock = Clock.simulated ();
      cache_capacity = 1;
      expand_budget_ms = Some 50.;
      prefetch = Some Bionav_prefetch.Prefetch.default_config;
    }
  in
  let t = Engine.create ~config ~database:w.Q.database ~eutils:w.Q.eutils () in
  let zipf = Zipf.create ~exponent:1.0 (Array.length queries) in
  let rng = Rng.create seed in
  let trace = Buffer.create 4096 in
  let escaped = ref 0 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string trace (l ^ "\n")) fmt in
  let guarded label f =
    match f () with
    | () -> ()
    | exception e ->
        incr escaped;
        line "  %s ESCAPED %s" label (Printexc.to_string e)
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  for i = 1 to sessions do
    let q =
      if Rng.float rng 1. < 0.25 then junk.(Rng.int rng (Array.length junk))
      else queries.(Zipf.draw zipf rng).Q.keyword
    in
    guarded "search" (fun () ->
        match Engine.search t q with
        | Error msg -> line "%d %S error %s" i q msg
        | Ok Engine.No_results -> line "%d %S no-results" i q
        | Ok (Engine.Session s) ->
            line "%d %S %s" i q (Engine.session_id s);
            for _ = 1 to 6 do
              guarded "action" (fun () ->
                  let active = Navigation.active (Engine.navigation s) in
                  let expandable =
                    List.filter (Active_tree.is_expandable active) (Active_tree.visible active)
                  in
                  if expandable = [] || Rng.float rng 1. < 0.2 then
                    line "  backtrack %b" (Engine.backtrack s)
                  else
                    let node = List.nth expandable (Rng.int rng (List.length expandable)) in
                    line "  expand %d -> [%s]" node (ints (Engine.expand s node)))
            done;
            let st = Navigation.stats (Engine.navigation s) in
            line "  cost=%d closed=%b" (Navigation.total_cost st)
              (Engine.close t (Engine.session_id s)))
  done;
  (Buffer.contents trace, !escaped)

let test_replay_no_exception_escapes () =
  let trace, escaped = replay_traffic ~seed:3 ~sessions:24 in
  Alcotest.(check int) "no exception escaped the engine" 0 escaped;
  Alcotest.(check bool) "junk queries were refused" true (contains ~sub:"error" trace);
  Alcotest.(check bool) "sessions expanded" true (contains ~sub:"expand" trace)

let test_replay_deterministic () =
  let t1, e1 = replay_traffic ~seed:17 ~sessions:16 in
  let t2, e2 = replay_traffic ~seed:17 ~sessions:16 in
  Alcotest.(check int) "no exception escaped" 0 (e1 + e2);
  Alcotest.(check string) "byte-identical traces" t1 t2;
  let t3, _ = replay_traffic ~seed:18 ~sessions:16 in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

(* Latency spikes against the EXPAND budget, on a simulated clock: every
   EXPAND starts a 50 ms deadline, and with probability 0.25 a seeded
   20-200 ms spike then eats into it. Over 60 Zipf-drawn oracle sessions,
   every session still reaches its target, at most half the EXPANDs
   degrade, and no cut of an over-budget EXPAND — a degraded one — is
   reported to the plan source. The source never answers, so every
   EXPAND either computes its cut or degrades. *)
let test_latency_spikes_degrade_at_most_half () =
  let w = Lazy.force small_workload in
  let queries = Array.of_list w.Q.queries in
  let clock = Clock.simulated () in
  let t =
    Engine.create ~config:{ Engine.default_config with Engine.clock } ~database:w.Q.database
      ~eutils:w.Q.eutils ()
  in
  let spikes = Rng.create 5 in
  let over_budget = ref (fun () -> false) in
  let budget () =
    let d = Deadline.start ~clock ~budget_ms:50. in
    if Rng.float spikes 1. < 0.25 then Clock.advance clock (20. +. Rng.float spikes 180.);
    over_budget := (fun () -> Deadline.expired d);
    !over_budget
  in
  let zipf = Zipf.create ~exponent:1.0 (Array.length queries) in
  let rng = Rng.create 42 in
  let expands = ref 0 and degraded = ref 0 and stored = ref 0 and stored_over = ref 0 in
  for _ = 1 to 60 do
    let q = queries.(Zipf.draw zipf rng) in
    let s = must_session (Engine.search t q.Q.keyword) in
    let navigation = Engine.navigation s in
    Navigation.set_budget navigation (Some budget);
    Navigation.set_plan_source navigation
      (Some
         {
           Navigation.find_plan = (fun ~root:_ ~members:_ ~members_fp:_ -> None);
           store_plan =
             (fun ~root:_ ~members:_ ~members_fp:_ ~cut:_ ->
               incr stored;
               if !over_budget () then incr stored_over);
         });
    let outcome = Simulate.to_target navigation ~target:q.Q.target_node in
    Alcotest.(check bool)
      (q.Q.keyword ^ " reaches its target")
      true
      (Active_tree.is_visible (Navigation.active navigation) q.Q.target_node);
    expands := !expands + outcome.Simulate.expands;
    degraded :=
      !degraded
      + List.length (List.filter (fun r -> r.Navigation.degraded) outcome.Simulate.history);
    ignore (Engine.close t (Engine.session_id s) : bool)
  done;
  let fraction = float_of_int !degraded /. float_of_int !expands in
  Alcotest.(check bool) "spikes degraded some EXPANDs" true (!degraded > 0);
  Alcotest.(check bool)
    (Printf.sprintf "degraded fraction %.3f <= 0.5" fraction)
    true (fraction <= 0.5);
  Alcotest.(check bool) "computed cuts were stored" true (!stored > 0);
  Alcotest.(check int) "no cut stored over budget" 0 !stored_over

let () =
  Alcotest.run "engine"
    [
      ( "strategies",
        [
          Alcotest.test_case "validate" `Quick test_validate_strategy;
          Alcotest.test_case "of_name" `Quick test_strategy_of_name;
          Alcotest.test_case "start validates" `Quick test_start_validates;
        ] );
      ( "search",
        [
          Alcotest.test_case "errors" `Quick test_search_errors;
          Alcotest.test_case "no results" `Quick test_search_no_results;
          Alcotest.test_case "monotonic ids" `Quick test_search_creates_sessions_with_monotonic_ids;
          Alcotest.test_case "index retains no results" `Quick
            test_search_retains_nothing_in_index;
        ] );
      ( "store",
        [
          Alcotest.test_case "eviction bound" `Quick test_eviction_bound;
          Alcotest.test_case "LRU order" `Quick test_eviction_is_lru;
          Alcotest.test_case "close" `Quick test_close;
          Alcotest.test_case "ttl sweep" `Quick test_ttl_sweep;
          Alcotest.test_case "ttl touch refreshes" `Quick test_ttl_touch_refreshes;
          Alcotest.test_case "sweep without ttl" `Quick test_sweep_without_ttl;
        ] );
      ( "cache",
        [ Alcotest.test_case "normalization shares" `Quick test_query_normalization_shares_cache ] );
      ( "observability",
        [
          Alcotest.test_case "metrics populated" `Quick test_navigation_populates_metrics;
          Alcotest.test_case "show results" `Quick test_show_results_returns_citations;
        ] );
      ( "engine",
        [
          Alcotest.test_case "reentrant run_locked raises" `Quick test_reentrant_run_locked;
          Alcotest.test_case "second domain refused" `Quick test_second_domain_refused;
          Alcotest.test_case "handoff across domains" `Quick test_sequential_handoff;
          Alcotest.test_case "zipf replay conserves expands" `Quick
            test_zipf_replay_conserves_expands;
        ] );
      ( "replay",
        [
          Alcotest.test_case "no exception escapes" `Quick test_replay_no_exception_escapes;
          Alcotest.test_case "seeded replay deterministic" `Quick test_replay_deterministic;
          Alcotest.test_case "spikes degrade at most half" `Quick
            test_latency_spikes_degrade_at_most_half;
        ] );
    ]
