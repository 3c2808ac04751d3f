(* Clocks, deadlines and degraded EXPANDs: every timing-dependent
   behaviour runs on simulated clocks, so the suite is deterministic and
   instant; only the real clock's own monotonicity check sleeps. *)

open Bionav_util
open Bionav_core
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module DB = Bionav_store.Database
module Eu = Bionav_search.Eutils
module Engine = Bionav_engine.Engine
module Clock = Bionav_resilience.Clock
module Deadline = Bionav_resilience.Deadline

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

let engine ?config () =
  let database, eutils = Lazy.force world in
  Engine.create ?config ~database ~eutils ()

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* --- clock -------------------------------------------------------------- *)

let test_simulated_clock () =
  let c = Clock.simulated ~start_ms:100. () in
  Alcotest.(check (float 1e-9)) "start" 100. (Clock.now_ms c);
  Clock.advance c 50.;
  Alcotest.(check (float 1e-9)) "advance" 150. (Clock.now_ms c);
  Clock.advance c 0.;
  Alcotest.(check (float 1e-9)) "zero advance is a no-op" 150. (Clock.now_ms c);
  let c2 = Clock.simulated () in
  Alcotest.(check (float 1e-9)) "clocks are independent" 0. (Clock.now_ms c2)

let test_clock_validation () =
  Alcotest.(check bool) "advance on real raises" true
    (raises_invalid (fun () -> Clock.advance Clock.real 1.));
  Alcotest.(check bool) "negative advance raises" true
    (raises_invalid (fun () -> Clock.advance (Clock.simulated ()) (-1.)))

(* The real clock is monotonic: readings never decrease, and a real
   sleep shows up as elapsed time, so TTLs and deadlines measured as
   differences of readings are never negative. *)
let test_real_clock_monotonic () =
  let prev = ref (Clock.now_ms Clock.real) in
  for i = 1 to 1_000 do
    let now = Clock.now_ms Clock.real in
    if now < !prev then Alcotest.failf "real clock: reading %d went back %g ms" i (!prev -. now);
    prev := now
  done;
  let t0 = Clock.now_ms Clock.real in
  Unix.sleepf 0.002;
  Alcotest.(check bool) "sleep is elapsed time" true (Clock.now_ms Clock.real -. t0 >= 1.)

(* --- deadline ----------------------------------------------------------- *)

let test_deadline () =
  let clock = Clock.simulated () in
  let d = Deadline.start ~clock ~budget_ms:100. in
  Alcotest.(check bool) "fresh deadline live" false (Deadline.expired d);
  Clock.advance clock 99.;
  Alcotest.(check bool) "still live" false (Deadline.expired d);
  Clock.advance clock 1.;
  Alcotest.(check bool) "expires exactly on budget" true (Deadline.expired d);
  Alcotest.(check bool) "zero budget expires immediately" true
    (Deadline.expired (Deadline.start ~clock ~budget_ms:0.));
  Alcotest.(check bool) "negative budget raises" true
    (raises_invalid (fun () -> Deadline.start ~clock ~budget_ms:(-1.)))

(* --- navigation degradation --------------------------------------------- *)

let over_budget_factory = Some (fun () -> fun () -> true)

let test_degraded_expand_flagged () =
  let nav = Lazy.force cancer_nav in
  let root = Nav_tree.root nav in
  let degraded_counter = Metrics.counter "bionav_resilience_degraded_expands_total" in
  let before = Metrics.value degraded_counter in
  let healthy = Navigation.start (Navigation.bionav ()) nav in
  let healthy_revealed = Navigation.expand healthy root in
  Alcotest.(check bool) "healthy expand not degraded" false
    (List.exists (fun r -> r.Navigation.degraded) (Navigation.stats healthy).Navigation.history);
  Alcotest.(check int) "no degradation counted" before (Metrics.value degraded_counter);
  let starved = Navigation.start (Navigation.bionav ()) nav in
  Navigation.set_budget starved over_budget_factory;
  let starved_revealed = Navigation.expand starved root in
  Alcotest.(check bool) "degraded expand still reveals" true (starved_revealed <> []);
  (match (Navigation.stats starved).Navigation.history with
  | [ r ] -> Alcotest.(check bool) "record flagged degraded" true r.Navigation.degraded
  | _ -> Alcotest.fail "expected exactly one expand record");
  Alcotest.(check int) "degradation counted" (before + 1) (Metrics.value degraded_counter);
  (* The degraded cut is the Static_paged-style top-k page, generally a
     different (cheaper) answer than the heuristic cut. *)
  Alcotest.(check bool) "at most k children served" true (List.length starved_revealed <= 10);
  ignore healthy_revealed

let test_injected_plan_is_not_degraded () =
  let nav = Lazy.force cancer_nav in
  let root = Nav_tree.root nav in
  (* Memoize a real heuristic cut, then serve it to an over-budget session
     through a plan source: a free plan hit beats degrading. *)
  let donor = Navigation.start (Navigation.bionav ()) nav in
  let cut = Navigation.expand donor root in
  let stored = ref [] in
  let source =
    {
      Navigation.find_plan = (fun ~root:_ ~members:_ ~members_fp:_ -> Some cut);
      store_plan = (fun ~root:_ ~members:_ ~members_fp:_ ~cut -> stored := cut :: !stored);
    }
  in
  let starved = Navigation.start (Navigation.bionav ()) nav in
  Navigation.set_plan_source starved (Some source);
  Navigation.set_budget starved over_budget_factory;
  let revealed = Navigation.expand starved root in
  Alcotest.(check (list int)) "plan served verbatim" cut revealed;
  (match (Navigation.stats starved).Navigation.history with
  | [ r ] -> Alcotest.(check bool) "plan hit not degraded" false r.Navigation.degraded
  | _ -> Alcotest.fail "expected exactly one expand record")

let test_degraded_cut_never_stored () =
  let nav = Lazy.force cancer_nav in
  let root = Nav_tree.root nav in
  let stored = ref [] in
  let source =
    {
      Navigation.find_plan = (fun ~root:_ ~members:_ ~members_fp:_ -> None);
      store_plan = (fun ~root:_ ~members:_ ~members_fp:_ ~cut -> stored := cut :: !stored);
    }
  in
  let starved = Navigation.start (Navigation.bionav ()) nav in
  Navigation.set_plan_source starved (Some source);
  Navigation.set_budget starved over_budget_factory;
  ignore (Navigation.expand starved root : int list);
  Alcotest.(check int) "degraded cut not memoized" 0 (List.length !stored);
  let healthy = Navigation.start (Navigation.bionav ()) nav in
  Navigation.set_plan_source healthy (Some source);
  ignore (Navigation.expand healthy root : int list);
  Alcotest.(check int) "computed cut memoized" 1 (List.length !stored)

let test_engine_zero_budget_degrades () =
  let clock = Clock.simulated () in
  let config =
    { Engine.default_config with Engine.clock; expand_budget_ms = Some 0. }
  in
  let t = engine ~config () in
  match Engine.search t "cancer" with
  | Ok (Engine.Session s) ->
      let nav = Engine.session_nav s in
      let revealed = Engine.expand s (Nav_tree.root nav) in
      Alcotest.(check bool) "degraded expand reveals" true (revealed <> []);
      Alcotest.(check bool) "every expand degraded under zero budget" true
        (List.for_all
           (fun r -> r.Navigation.degraded)
           (Navigation.stats (Engine.navigation s)).Navigation.history)
  | Ok Engine.No_results | Error _ -> Alcotest.fail "cancer query must produce a session"

let () =
  Alcotest.run "resilience"
    [
      ( "clock",
        [
          Alcotest.test_case "simulated clock" `Quick test_simulated_clock;
          Alcotest.test_case "validation" `Quick test_clock_validation;
        ] );
      ("clock-monotonic", [ Alcotest.test_case "real clock" `Quick test_real_clock_monotonic ]);
      ("deadline", [ Alcotest.test_case "expiry" `Quick test_deadline ]);
      ( "degradation",
        [
          Alcotest.test_case "degraded expand flagged" `Quick test_degraded_expand_flagged;
          Alcotest.test_case "plan hit not degraded" `Quick test_injected_plan_is_not_degraded;
          Alcotest.test_case "degraded cut never stored" `Quick test_degraded_cut_never_stored;
          Alcotest.test_case "zero budget degrades" `Quick test_engine_zero_budget_degrades;
        ] );
    ]
