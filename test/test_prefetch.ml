open Bionav_util
open Bionav_core
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module DB = Bionav_store.Database
module Snapshot = Bionav_store.Snapshot
module Eu = Bionav_search.Eutils
module Engine = Bionav_engine.Engine
module Http = Bionav_web.Http
module App = Bionav_web.App
module Plan_cache = Bionav_prefetch.Plan_cache
module Prefetch = Bionav_prefetch.Prefetch

let fp = Probability.default_model.Probability.fingerprint

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* Same corpus as test_engine: a seeded, findable query word. *)
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

let cancer_nav =
  lazy
    (let db, eu = Lazy.force world in
     Nav_tree.of_database db (Eu.esearch eu "cancer"))

let engine ?config ?snapshot () =
  let database, eutils = Lazy.force world in
  Engine.create ?config ?snapshot ~database ~eutils ()

let must_session = function
  | Ok (Engine.Session s) -> s
  | Ok Engine.No_results -> Alcotest.fail "unexpected No_results"
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

let prefetch_config = { Engine.default_config with prefetch = Some Prefetch.default_config }

let next_expandable active =
  List.find_opt (Active_tree.is_expandable active) (Active_tree.visible active)

(* Expand until every visible component is a singleton, recording the
   (node, revealed) trace — the byte-level navigation transcript. *)
let drain session =
  let rec loop fuel acc =
    if fuel = 0 then Alcotest.fail "drain: expansion did not terminate"
    else
      match next_expandable (Navigation.active session) with
      | None -> List.rev acc
      | Some n ->
          let revealed = Navigation.expand session n in
          if revealed = [] then Alcotest.fail "drain: empty reveal on expandable node"
          else loop (fuel - 1) ((n, revealed) :: acc)
  in
  loop 10_000 []

let drain_engine session =
  let rec loop fuel =
    if fuel = 0 then Alcotest.fail "drain: expansion did not terminate"
    else
      match next_expandable (Navigation.active (Engine.navigation session)) with
      | None -> ()
      | Some n ->
          ignore (Engine.expand session n);
          loop (fuel - 1)
  in
  loop 10_000

(* --- plan cache -------------------------------------------------------- *)

let test_plan_cache_roundtrip () =
  let c = Plan_cache.create () in
  Alcotest.(check (option (list int))) "cold miss" None
    (Plan_cache.find c ~fingerprint:fp ~query:"cancer" ~root:0 ~members:(Docset.of_list [ 0; 1; 2 ]));
  Plan_cache.store c ~fingerprint:fp ~query:"  Cancer " ~root:0 ~members:(Docset.of_list [ 0; 1; 2 ]) ~cut:[ 1; 2 ];
  Alcotest.(check (option (list int))) "hit under normalized variant" (Some [ 1; 2 ])
    (Plan_cache.find c ~fingerprint:fp ~query:"CANCER" ~root:0 ~members:(Docset.of_list [ 0; 1; 2 ]));
  Alcotest.(check (option (list int))) "different members miss" None
    (Plan_cache.find c ~fingerprint:fp ~query:"cancer" ~root:0 ~members:(Docset.of_list [ 0; 1; 3 ]));
  Alcotest.(check (option (list int))) "different root miss" None
    (Plan_cache.find c ~fingerprint:fp ~query:"cancer" ~root:1 ~members:(Docset.of_list [ 0; 1; 2 ]));
  Alcotest.(check (option (list int))) "different query miss" None
    (Plan_cache.find c ~fingerprint:fp ~query:"histones" ~root:0 ~members:(Docset.of_list [ 0; 1; 2 ]));
  Alcotest.(check int) "one entry" 1 (Plan_cache.length c);
  Alcotest.(check int) "hits" 1 (Plan_cache.hits c);
  Alcotest.(check int) "misses" 4 (Plan_cache.misses c)

let test_plan_cache_empty_cut_ignored () =
  let c = Plan_cache.create () in
  Plan_cache.store c ~fingerprint:fp ~query:"q" ~root:3 ~members:(Docset.of_list [ 3; 4 ]) ~cut:[];
  Alcotest.(check int) "nothing stored" 0 (Plan_cache.length c);
  Alcotest.(check (option (list int))) "still a miss" None
    (Plan_cache.find c ~fingerprint:fp ~query:"q" ~root:3 ~members:(Docset.of_list [ 3; 4 ]))

let test_plan_cache_capacity_and_clear () =
  let c = Plan_cache.create ~capacity:1 () in
  Plan_cache.store c ~fingerprint:fp ~query:"a" ~root:0 ~members:(Docset.of_list [ 0; 1 ]) ~cut:[ 1 ];
  Plan_cache.store c ~fingerprint:fp ~query:"b" ~root:0 ~members:(Docset.of_list [ 0; 1 ]) ~cut:[ 1 ];
  Alcotest.(check int) "LRU bound holds" 1 (Plan_cache.length c);
  Alcotest.(check (option (list int))) "older evicted" None
    (Plan_cache.find c ~fingerprint:fp ~query:"a" ~root:0 ~members:(Docset.of_list [ 0; 1 ]));
  ignore (Plan_cache.find c ~fingerprint:fp ~query:"b" ~root:0 ~members:(Docset.of_list [ 0; 1 ]));
  Plan_cache.clear c;
  Alcotest.(check int) "emptied" 0 (Plan_cache.length c);
  Alcotest.(check int) "hits zeroed" 0 (Plan_cache.hits c);
  Alcotest.(check int) "misses zeroed" 0 (Plan_cache.misses c)

let test_plan_cache_fingerprint_keying () =
  (* The stale-plan guarantee: a plan stored under one model fingerprint
     is invisible under any other, so a model refresh (new fingerprint)
     can never serve a cut computed under superseded probabilities. *)
  let c = Plan_cache.create () in
  let members = Docset.of_list [ 0; 1; 2 ] in
  Plan_cache.store c ~fingerprint:fp ~query:"cancer" ~root:0 ~members ~cut:[ 1; 2 ];
  Alcotest.(check (option (list int))) "same fingerprint hits" (Some [ 1; 2 ])
    (Plan_cache.find c ~fingerprint:fp ~query:"cancer" ~root:0 ~members);
  Alcotest.(check (option (list int))) "other fingerprint misses" None
    (Plan_cache.find c ~fingerprint:"learned/50/10/16/10/e1" ~query:"cancer" ~root:0 ~members)

(* --- served plans are byte-identical ----------------------------------- *)

let test_cached_replay_is_byte_identical () =
  let nav = Lazy.force cancer_nav in
  let reference = Navigation.start (Navigation.bionav ()) nav in
  let trace_ref = drain reference in
  Alcotest.(check bool) "fixture is navigable" true (List.length trace_ref > 1);
  let cache = Plan_cache.create () in
  let source () = Some (Plan_cache.plan_source cache ~query:"cancer" ~fingerprint:fp) in
  let warming = Navigation.start (Navigation.bionav ()) nav in
  Navigation.set_plan_source warming (source ());
  let trace_warm = drain warming in
  Alcotest.(check bool) "warming run matches plain run" true (trace_ref = trace_warm);
  Alcotest.(check bool) "plans were stored" true (Plan_cache.length cache > 0);
  let hits_before = Plan_cache.hits cache in
  let replay = Navigation.start (Navigation.bionav ()) nav in
  Navigation.set_plan_source replay (source ());
  let trace_replay = drain replay in
  Alcotest.(check bool) "cached replay byte-identical" true (trace_ref = trace_replay);
  Alcotest.(check int) "every EXPAND served from cache" (List.length trace_ref)
    (Plan_cache.hits cache - hits_before);
  (* Served plans skip the solver: the expand records carry the marker. *)
  List.iter
    (fun r ->
      Alcotest.(check (float 0.)) "no solver time" 0. r.Navigation.elapsed_ms;
      Alcotest.(check int) "no reduced tree" 0 r.Navigation.reduced_size)
    (Navigation.stats replay).Navigation.history

(* --- snapshot format --------------------------------------------------- *)

let sample_entries () =
  [
    { Snapshot.query = "alpha"; results = Intset.of_list [ 1; 5; 9 ]; root_cut = [ 2; 3 ] };
    { Snapshot.query = "beta"; results = Intset.empty; root_cut = [] };
  ]

let test_snapshot_roundtrip () =
  let db, _ = Lazy.force world in
  let entries = sample_entries () in
  let back = Snapshot.decode ~db (Snapshot.encode ~db entries) in
  Alcotest.(check int) "entry count" (List.length entries) (List.length back);
  List.iter2
    (fun e b ->
      Alcotest.(check string) "query" e.Snapshot.query b.Snapshot.query;
      Alcotest.(check bool) "results" true (Intset.equal e.Snapshot.results b.Snapshot.results);
      Alcotest.(check (list int)) "root cut" e.Snapshot.root_cut b.Snapshot.root_cut)
    entries back

let rejects f = try ignore (f ()); false with Invalid_argument _ -> true

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let test_snapshot_rejects_corruption () =
  let db, _ = Lazy.force world in
  let data = Snapshot.encode ~db (sample_entries ()) in
  (* Header: 10-byte magic, 4-byte version, 8-byte checksum; body at 22. *)
  Alcotest.(check bool) "bad magic" true (rejects (fun () -> Snapshot.decode ~db (flip_byte data 0)));
  let bumped = Bytes.of_string data in
  Bytes.set bumped 10 '\x63';
  Alcotest.(check bool) "future version" true
    (rejects (fun () -> Snapshot.decode ~db (Bytes.to_string bumped)));
  Alcotest.(check bool) "checksum catches a body flip" true
    (rejects (fun () -> Snapshot.decode ~db (flip_byte data 25)));
  Alcotest.(check bool) "truncation" true
    (rejects (fun () -> Snapshot.decode ~db (String.sub data 0 (String.length data - 1))));
  Alcotest.(check bool) "trailing garbage" true
    (rejects (fun () -> Snapshot.decode ~db (data ^ "!")))

let test_snapshot_rejects_other_database () =
  let db, _ = Lazy.force world in
  let data = Snapshot.encode ~db (sample_entries ()) in
  (* Same hierarchy, different corpus size: the dimension stamp must trip. *)
  let h = S.generate ~params:S.small_params ~seed:211 () in
  let other =
    DB.of_medline
      (G.generate ~params:{ G.small_params with G.n_citations = 5; seeded_groups = [] } ~seed:3 h)
  in
  Alcotest.(check bool) "dimension mismatch rejected" true
    (rejects (fun () -> Snapshot.decode ~db:other data))

(* --- engine integration ------------------------------------------------ *)

let test_engine_repeat_sessions_hit_cache () =
  let t = engine ~config:prefetch_config () in
  Alcotest.(check bool) "prefetch enabled" true (Engine.prefetch t <> None);
  for _ = 1 to 4 do
    let s = must_session (Engine.search t "cancer") in
    drain_engine s;
    ignore (Engine.close t (Engine.session_id s))
  done;
  let rate = Engine.plan_cache_hit_rate t in
  Alcotest.(check bool) "repeat traffic served from plan cache" true (rate >= 0.5);
  let text = Engine.metrics_text t in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains ~sub text))
    [
      "bionav_prefetch_plan_hits_total";
      "bionav_prefetch_plan_misses_total";
      "bionav_prefetch_plan_insertions_total";
    ]

let test_engine_disabled_prefetch_is_inert () =
  let t = engine () in
  Alcotest.(check bool) "no facade" true (Engine.prefetch t = None);
  let s = must_session (Engine.search t "cancer") in
  ignore (Engine.expand s (Nav_tree.root (Engine.session_nav s)));
  Alcotest.(check (float 1e-9)) "no hit rate" 0. (Engine.plan_cache_hit_rate t)

let test_engine_warm_snapshot_roundtrip () =
  let t = engine ~config:prefetch_config () in
  let entries = Engine.warm t [ "cancer"; "  CANCER " ] in
  Alcotest.(check int) "normalized + deduplicated" 1 (List.length entries);
  let e = List.hd entries in
  Alcotest.(check string) "normalized query" "cancer" e.Snapshot.query;
  Alcotest.(check bool) "root cut captured" true (e.Snapshot.root_cut <> []);
  let path = Filename.temp_file "bionav_snapshot" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Engine.save_snapshot t entries path;
      let t2 = engine ~config:prefetch_config ~snapshot:path () in
      let s = must_session (Engine.search t2 "cancer") in
      Alcotest.(check (float 1e-9)) "tree served from warmed cache" 1.
        (Engine.cache_hit_rate t2);
      let plans = Prefetch.plans (Option.get (Engine.prefetch t2)) in
      let hits_before = Plan_cache.hits plans in
      let root = Nav_tree.root (Engine.session_nav s) in
      let revealed = Engine.expand s root in
      Alcotest.(check int) "first EXPAND served from warmed plan" (hits_before + 1)
        (Plan_cache.hits plans);
      (* The warmed cut is byte-identical to a cold computation. *)
      let cold = Navigation.start (Navigation.bionav ()) (Engine.session_nav s) in
      Alcotest.(check (list int)) "warmed root cut = cold root cut"
        (Navigation.expand cold root) revealed)

(* --- web surface ------------------------------------------------------- *)

let test_web_prefetch_routes () =
  let database, eutils = Lazy.force world in
  let app = App.create ~config:prefetch_config ~database ~eutils () in
  let handle = App.handle app in
  let metrics = handle ~path:"/metrics" ~query:[] in
  Alcotest.(check int) "metrics 200" 200 metrics.Http.status;
  Alcotest.(check bool) "prefetch counters exported" true
    (contains ~sub:"bionav_prefetch_plan_hits_total" metrics.Http.body);
  let status = handle ~path:"/prefetch" ~query:[] in
  Alcotest.(check int) "prefetch 200" 200 status.Http.status;
  Alcotest.(check bool) "enabled report" true (contains ~sub:"prefetch: enabled" status.Http.body);
  Alcotest.(check bool) "hit rate reported" true (contains ~sub:"plan_hit_rate" status.Http.body);
  let plain = App.create ~database ~eutils () in
  let status = (App.handle plain) ~path:"/prefetch" ~query:[] in
  Alcotest.(check bool) "disabled report" true
    (contains ~sub:"prefetch: disabled" status.Http.body)

let () =
  Alcotest.run "prefetch"
    [
      ( "plan cache",
        [
          Alcotest.test_case "roundtrip + keying" `Quick test_plan_cache_roundtrip;
          Alcotest.test_case "empty cut ignored" `Quick test_plan_cache_empty_cut_ignored;
          Alcotest.test_case "capacity + clear" `Quick test_plan_cache_capacity_and_clear;
          Alcotest.test_case "fingerprint keying" `Quick test_plan_cache_fingerprint_keying;
          Alcotest.test_case "cached replay byte-identical" `Quick
            test_cached_replay_is_byte_identical;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick test_snapshot_rejects_corruption;
          Alcotest.test_case "rejects other database" `Quick test_snapshot_rejects_other_database;
        ] );
      ( "engine",
        [
          Alcotest.test_case "repeat sessions hit cache" `Quick
            test_engine_repeat_sessions_hit_cache;
          Alcotest.test_case "disabled prefetch inert" `Quick
            test_engine_disabled_prefetch_is_inert;
          Alcotest.test_case "warm + snapshot roundtrip" `Quick
            test_engine_warm_snapshot_roundtrip;
        ] );
      ( "web",
        [ Alcotest.test_case "/prefetch + /metrics" `Quick test_web_prefetch_routes ] );
    ]
