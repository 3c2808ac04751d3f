(* The chaos suite: every timing-dependent behaviour runs on simulated
   clocks — there is not a single real-clock sleep in this file — so the
   whole suite is deterministic and instant. *)

open Bionav_util
open Bionav_core
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module DB = Bionav_store.Database
module Eu = Bionav_search.Eutils
module Engine = Bionav_engine.Engine
module Prefetch = Bionav_prefetch.Prefetch
module Clock = Bionav_resilience.Clock
module Backoff = Bionav_resilience.Backoff
module Retry = Bionav_resilience.Retry
module Breaker = Bionav_resilience.Breaker
module Chaos = Bionav_resilience.Chaos
module Deadline = Bionav_resilience.Deadline
module Guard = Bionav_resilience.Guard

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

let engine ?config ?chaos () =
  let database, eutils = Lazy.force world in
  Engine.create ?config ?chaos ~database ~eutils ()

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* --- clock -------------------------------------------------------------- *)

let test_simulated_clock () =
  let c = Clock.simulated ~start_ms:100. () in
  Alcotest.(check bool) "simulated" true (Clock.is_simulated c);
  Alcotest.(check (float 1e-9)) "start" 100. (Clock.now_ms c);
  Clock.advance c 50.;
  Alcotest.(check (float 1e-9)) "advance" 150. (Clock.now_ms c);
  Clock.sleep_ms c 25.;
  Alcotest.(check (float 1e-9)) "sleep advances" 175. (Clock.now_ms c);
  Clock.sleep_ms c (-10.);
  Alcotest.(check (float 1e-9)) "negative sleep is a no-op" 175. (Clock.now_ms c);
  let c2 = Clock.simulated () in
  Alcotest.(check (float 1e-9)) "clocks are independent" 0. (Clock.now_ms c2)

let test_clock_validation () =
  Alcotest.(check bool) "real is not simulated" false (Clock.is_simulated Clock.real);
  Alcotest.(check bool) "advance on real raises" true
    (raises_invalid (fun () -> Clock.advance Clock.real 1.));
  Alcotest.(check bool) "negative advance raises" true
    (raises_invalid (fun () -> Clock.advance (Clock.simulated ()) (-1.)))

(* The real clock is monotonic: readings never decrease, and a real
   sleep shows up as elapsed time, so TTLs and cool-downs measured as
   differences of readings are never negative. *)
let test_real_clock_monotonic () =
  let prev = ref (Clock.now_ms Clock.real) in
  for i = 1 to 1_000 do
    let now = Clock.now_ms Clock.real in
    if now < !prev then Alcotest.failf "real clock: reading %d went back %g ms" i (!prev -. now);
    prev := now
  done;
  let t0 = Clock.now_ms Clock.real in
  Clock.sleep_ms Clock.real 2.;
  Alcotest.(check bool) "sleep is elapsed time" true (Clock.now_ms Clock.real -. t0 >= 1.)

(* --- backoff ------------------------------------------------------------ *)

let test_backoff_validation () =
  Alcotest.(check bool) "default valid" true (Result.is_ok (Backoff.validate Backoff.default));
  let bad p = Result.is_error (Backoff.validate p) in
  Alcotest.(check bool) "zero base" true (bad { Backoff.default with base_ms = 0. });
  Alcotest.(check bool) "shrinking multiplier" true
    (bad { Backoff.default with multiplier = 0.5 });
  Alcotest.(check bool) "cap below base" true (bad { Backoff.default with cap_ms = 1. });
  Alcotest.(check bool) "negative jitter" true (bad { Backoff.default with jitter = -0.1 });
  Alcotest.(check bool) "jitter above multiplier - 1" true
    (bad { Backoff.default with multiplier = 1.2; jitter = 0.3 })

(* A valid random policy: multiplier >= 1 + jitter by construction. *)
let policy_gen =
  QCheck.Gen.(
    let* base_ms = float_range 0.1 50. in
    let* jitter = float_range 0. 1.5 in
    let* extra = float_range 0. 2. in
    let multiplier = 1. +. jitter +. extra in
    let* cap_factor = float_range 1. 200. in
    return { Backoff.base_ms; multiplier; cap_ms = base_ms *. cap_factor; jitter })

let policy_arb =
  QCheck.make ~print:(fun p ->
      Printf.sprintf "{base=%g; mult=%g; cap=%g; jitter=%g}" p.Backoff.base_ms p.Backoff.multiplier
        p.Backoff.cap_ms p.Backoff.jitter)
    policy_gen

let qcheck_backoff_monotone_and_capped =
  QCheck.Test.make ~name:"backoff monotone non-decreasing and never above cap" ~count:300
    QCheck.(pair policy_arb small_nat)
    (fun (p, seed) ->
      let delays = Backoff.schedule p ~seed ~n:12 in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | [ _ ] | [] -> true
      in
      monotone delays && List.for_all (fun d -> d <= p.Backoff.cap_ms +. 1e-9) delays)

let qcheck_backoff_deterministic =
  QCheck.Test.make ~name:"backoff identical for identical seeds" ~count:300
    QCheck.(pair policy_arb small_nat)
    (fun (p, seed) ->
      Backoff.schedule p ~seed ~n:8 = Backoff.schedule p ~seed ~n:8)

(* --- retry -------------------------------------------------------------- *)

let test_retry_succeeds_after_transients () =
  let clock = Clock.simulated () in
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls <= 2 then Error "transient" else Ok !calls
  in
  let result = Retry.run Retry.default_config ~clock ~rng:(Rng.create 7) f in
  Alcotest.(check (result int string)) "third attempt wins" (Ok 3) result;
  (* The two backoff sleeps advanced the virtual clock by exactly the
     seeded schedule — same policy, same seed, same draw order. *)
  let expected =
    List.fold_left ( +. ) 0. (Backoff.schedule Retry.default_config.Retry.backoff ~seed:7 ~n:2)
  in
  Alcotest.(check (float 1e-9)) "virtual time slept" expected (Clock.now_ms clock)

let test_retry_gives_up () =
  let clock = Clock.simulated () in
  let calls = ref 0 in
  let f () =
    incr calls;
    Error (Printf.sprintf "fail %d" !calls)
  in
  let result = Retry.run Retry.default_config ~clock ~rng:(Rng.create 7) f in
  Alcotest.(check (result int string)) "last error surfaces" (Error "fail 3") result;
  Alcotest.(check int) "exactly max_attempts calls" 3 !calls;
  Alcotest.(check bool) "config validated" true
    (raises_invalid (fun () ->
         Retry.run { Retry.default_config with max_attempts = 0 } ~clock ~rng:(Rng.create 0)
           (fun () -> Ok ())))

(* --- breaker ------------------------------------------------------------ *)

let test_breaker_trips_at_threshold () =
  let clock = Clock.simulated () in
  let config = { Breaker.failure_threshold = 3; cooldown_ms = 100. } in
  let b = Breaker.create ~config ~clock () in
  Breaker.record_failure b;
  Breaker.record_failure b;
  Alcotest.(check bool) "still closed below threshold" true (Breaker.allow b);
  (* A success resets the streak: two more failures stay below threshold. *)
  Breaker.record_success b;
  Breaker.record_failure b;
  Breaker.record_failure b;
  Alcotest.(check bool) "streak reset by success" true (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "tripped at threshold" false (Breaker.allow b)

let test_breaker_cooldown_and_probe () =
  let clock = Clock.simulated () in
  let config = { Breaker.failure_threshold = 1; cooldown_ms = 1000. } in
  let b = Breaker.create ~config ~clock () in
  Breaker.record_failure b;
  Alcotest.(check bool) "open" false (Breaker.allow b);
  Clock.advance clock 999.;
  Alcotest.(check bool) "still open inside cooldown" false (Breaker.allow b);
  Clock.advance clock 1.;
  Alcotest.(check bool) "half-open probe allowed" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check bool) "probe success closes" true (Breaker.state b = Breaker.Closed)

let test_breaker_probe_failure_reopens () =
  let clock = Clock.simulated () in
  let config = { Breaker.failure_threshold = 1; cooldown_ms = 1000. } in
  let b = Breaker.create ~config ~clock () in
  Breaker.record_failure b;
  Clock.advance clock 1000.;
  Alcotest.(check bool) "probe allowed" true (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "probe failure reopens" false (Breaker.allow b);
  Clock.advance clock 999.;
  Alcotest.(check bool) "full fresh cooldown required" false (Breaker.allow b);
  Clock.advance clock 1.;
  Alcotest.(check bool) "reopens after the fresh cooldown" true (Breaker.allow b)

let qcheck_breaker_cooldown_is_virtual_time =
  QCheck.Test.make ~name:"breaker reopens only after cooldown of virtual time" ~count:200
    QCheck.(pair (float_range 1. 100_000.) (float_range 0. 0.99))
    (fun (cooldown_ms, fraction) ->
      let clock = Clock.simulated () in
      let b =
        Breaker.create ~config:{ Breaker.failure_threshold = 1; cooldown_ms } ~clock ()
      in
      Breaker.record_failure b;
      Clock.advance clock (fraction *. cooldown_ms);
      let rejected_early = not (Breaker.allow b) in
      (* The epsilon absorbs float rounding: frac*c + (c - frac*c) can land
         one ulp short of c, which would leave the breaker open. *)
      Clock.advance clock (cooldown_ms -. (fraction *. cooldown_ms) +. 1e-3);
      rejected_early && Breaker.allow b)

(* --- chaos -------------------------------------------------------------- *)

let test_chaos_deterministic_per_seed () =
  let config = { Chaos.default_config with seed = 42; error_rate = 0.4; delay_rate = 0.4 } in
  let draw_all plan =
    List.init 100 (fun i -> Chaos.draw plan ~op:(if i mod 3 = 0 then "esearch" else "expand"))
  in
  let a = draw_all (Chaos.create config) in
  let b = draw_all (Chaos.create config) in
  Alcotest.(check bool) "identical verdict streams" true (a = b);
  Alcotest.(check bool) "some failures drawn" true (List.mem Chaos.Fail a);
  Alcotest.(check bool) "some delays drawn" true
    (List.exists (function Chaos.Delay _ -> true | _ -> false) a)

let test_chaos_eligibility_keeps_stream_aligned () =
  let config s fail_ops = { Chaos.default_config with seed = s; error_rate = 0.5; fail_ops } in
  let restricted = Chaos.create (config 9 [ "a" ]) in
  let unrestricted = Chaos.create (config 9 []) in
  let n = 200 in
  let rv = List.init n (fun _ -> Chaos.draw restricted ~op:"b") in
  let uv = List.init n (fun _ -> Chaos.draw unrestricted ~op:"b") in
  Alcotest.(check bool) "ineligible op never fails" false (List.mem Chaos.Fail rv);
  Alcotest.(check bool) "eligible op does fail" true (List.mem Chaos.Fail uv);
  (* Same seed, same draw order: wherever the unrestricted plan did not
     fail, the two streams agree verbatim — eligibility consumes the same
     variates, it only masks the verdict. *)
  List.iter2
    (fun r u -> if u <> Chaos.Fail then Alcotest.(check bool) "streams aligned" true (r = u))
    rv uv

let test_chaos_validation () =
  Alcotest.(check bool) "error_rate above 1" true
    (raises_invalid (fun () -> Chaos.create { Chaos.default_config with error_rate = 1.5 }));
  Alcotest.(check bool) "negative delay_rate" true
    (raises_invalid (fun () -> Chaos.create { Chaos.default_config with delay_rate = -0.1 }));
  Alcotest.(check bool) "inverted delay range" true
    (raises_invalid (fun () -> Chaos.create { Chaos.default_config with delay_ms = (50., 10.) }))

(* --- deadline ----------------------------------------------------------- *)

let test_deadline () =
  let clock = Clock.simulated () in
  let d = Deadline.start ~clock ~budget_ms:100. in
  Alcotest.(check bool) "fresh deadline live" false (Deadline.expired d);
  Alcotest.(check (float 1e-9)) "full budget remains" 100. (Deadline.remaining_ms d);
  Clock.advance clock 99.;
  Alcotest.(check bool) "still live" false (Deadline.expired d);
  Clock.advance clock 1.;
  Alcotest.(check bool) "expires exactly on budget" true (Deadline.expired d);
  Clock.advance clock 1000.;
  Alcotest.(check (float 1e-9)) "remaining clamped at 0" 0. (Deadline.remaining_ms d);
  Alcotest.(check bool) "zero budget expires immediately" true
    (Deadline.expired (Deadline.start ~clock ~budget_ms:0.));
  Alcotest.(check bool) "negative budget raises" true
    (raises_invalid (fun () -> Deadline.start ~clock ~budget_ms:(-1.)))

(* --- guard -------------------------------------------------------------- *)

let test_guard_no_exception_escapes () =
  let clock = Clock.simulated () in
  let g = Guard.create ~clock () in
  (match Guard.call g ~op:"x" (fun () -> failwith "boom") with
  | Ok _ -> Alcotest.fail "raising thunk cannot succeed"
  | Error (Guard.Gave_up msg) ->
      Alcotest.(check bool) "failure described" true (String.length msg > 0)
  | Error Guard.Circuit_open -> Alcotest.fail "breaker cannot be open yet");
  Alcotest.(check (result int string)) "healthy thunk passes"
    (Ok 7)
    (Result.map_error Guard.error_message (Guard.call g ~op:"x" (fun () -> 7)))

let test_guard_retries_transients () =
  let clock = Clock.simulated () in
  let g = Guard.create ~clock () in
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls <= 2 then failwith "transient" else 99
  in
  (match Guard.call g ~op:"x" f with
  | Ok v -> Alcotest.(check int) "recovered value" 99 v
  | Error e -> Alcotest.fail (Guard.error_message e));
  Alcotest.(check int) "two retries happened" 3 !calls;
  Alcotest.(check bool) "backoff slept virtual time" true (Clock.now_ms clock > 0.)

let test_guard_chaos_injection () =
  let clock = Clock.simulated () in
  let always_fail =
    Chaos.create { Chaos.default_config with seed = 1; error_rate = 1.; delay_rate = 0. }
  in
  let g =
    Guard.create ~chaos:always_fail
      ~config:{ Guard.default_config with breaker = None }
      ~clock ()
  in
  let ran = ref 0 in
  (match Guard.call g ~op:"esearch" (fun () -> incr ran) with
  | Ok () -> Alcotest.fail "total fault plan cannot succeed"
  | Error Guard.Circuit_open -> Alcotest.fail "breaker disabled"
  | Error (Guard.Gave_up _) -> ());
  Alcotest.(check int) "thunk never reached through injected failures" 0 !ran;
  Alcotest.(check int) "every attempt drew a failure" 3 (Chaos.injected_failures always_fail);
  let never_fail =
    Chaos.create { Chaos.default_config with seed = 1; error_rate = 0.; delay_rate = 1. }
  in
  let g2 = Guard.create ~chaos:never_fail ~clock () in
  Alcotest.(check (result int string)) "delays alone do not fail"
    (Ok 5)
    (Result.map_error Guard.error_message (Guard.call g2 ~op:"esearch" (fun () -> 5)));
  Alcotest.(check bool) "injected latency advanced the clock" true
    (Clock.now_ms clock > 0. && Chaos.injected_delays never_fail > 0)

let test_guard_breaker_opens () =
  let clock = Clock.simulated () in
  let config =
    {
      Guard.retry = { Retry.max_attempts = 1; backoff = Backoff.default };
      breaker = Some { Breaker.failure_threshold = 3; cooldown_ms = 1000. };
    }
  in
  let g = Guard.create ~config ~clock () in
  for _ = 1 to 3 do
    match Guard.call g ~op:"x" (fun () -> failwith "down") with
    | Error (Guard.Gave_up _) -> ()
    | Ok _ | Error Guard.Circuit_open -> Alcotest.fail "expected Gave_up"
  done;
  (match Guard.call g ~op:"x" (fun () -> 1) with
  | Error Guard.Circuit_open -> ()
  | Ok _ | Error (Guard.Gave_up _) -> Alcotest.fail "circuit should be open");
  Clock.advance clock 1000.;
  Alcotest.(check (result int string)) "healthy probe closes the circuit"
    (Ok 1)
    (Result.map_error Guard.error_message (Guard.call g ~op:"x" (fun () -> 1)))

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

(* --- engine under chaos -------------------------------------------------- *)

(* Replay deterministic traffic against a chaos-injected engine and fold
   every observable outcome into a trace string. Sessions alternate the
   real query with junk ones; cache_capacity 1 keeps the guarded backend
   in play for most searches. *)
let chaos_traffic ~seed ~sessions =
  let clock = Clock.simulated () in
  let chaos =
    Chaos.create
      {
        Chaos.seed;
        error_rate = 0.4;
        delay_rate = 0.4;
        delay_ms = (20., 200.);
        fail_ops = [ "esearch" ];
      }
  in
  let config =
    {
      Engine.default_config with
      Engine.clock;
      cache_capacity = 1;
      expand_budget_ms = Some 50.;
      prefetch = Some Prefetch.default_config;
    }
  in
  let t = engine ~config ~chaos () in
  let queries = [| "cancer"; "zzznever"; "cancer" |] in
  let trace = Buffer.create 1024 in
  let crashes = ref 0 in
  let degraded = ref 0 in
  for i = 0 to sessions - 1 do
    let q = queries.(i mod Array.length queries) in
    (match Engine.search t q with
    | Ok (Engine.Session s) ->
        for _ = 1 to 4 do
          let navigation = Engine.navigation s in
          let active = Navigation.active navigation in
          match
            List.find_opt (Active_tree.is_expandable active) (Active_tree.visible active)
          with
          | None -> ()
          | Some node -> (
              match Engine.expand s node with
              | revealed ->
                  Buffer.add_string trace
                    (Printf.sprintf "  expand %d -> %d\n" node (List.length revealed))
              | exception e ->
                  incr crashes;
                  Buffer.add_string trace (Printf.sprintf "  CRASH %s\n" (Printexc.to_string e)))
        done;
        let st = Navigation.stats (Engine.navigation s) in
        degraded :=
          !degraded
          + List.length (List.filter (fun r -> r.Navigation.degraded) st.Navigation.history);
        Buffer.add_string trace
          (Printf.sprintf "s%d %s ok cost=%d t=%.3f\n" i q (Navigation.total_cost st)
             (Clock.now_ms clock));
        ignore (Engine.close t (Engine.session_id s) : bool)
    | Ok Engine.No_results ->
        Buffer.add_string trace (Printf.sprintf "s%d %s none t=%.3f\n" i q (Clock.now_ms clock))
    | Error msg ->
        Buffer.add_string trace
          (Printf.sprintf "s%d %s error %s t=%.3f\n" i q msg (Clock.now_ms clock))
    | exception e ->
        incr crashes;
        Buffer.add_string trace (Printf.sprintf "s%d CRASH %s\n" i (Printexc.to_string e)))
  done;
  (Buffer.contents trace, !crashes, !degraded)

let test_engine_survives_fault_plan () =
  let trace, crashes, _ = chaos_traffic ~seed:3 ~sessions:24 in
  Alcotest.(check int) "no exception escaped the engine" 0 crashes;
  Alcotest.(check bool) "faults actually surfaced as errors" true
    (let rec contains i =
       i + 5 <= String.length trace && (String.sub trace i 5 = "error" || contains (i + 1))
     in
     contains 0)

let test_engine_chaos_replay_deterministic () =
  let t1, c1, d1 = chaos_traffic ~seed:17 ~sessions:16 in
  let t2, c2, d2 = chaos_traffic ~seed:17 ~sessions:16 in
  Alcotest.(check string) "byte-identical traces" t1 t2;
  Alcotest.(check int) "no crashes" 0 (c1 + c2);
  Alcotest.(check int) "same degradations" d1 d2;
  let t3, _, _ = chaos_traffic ~seed:18 ~sessions:16 in
  Alcotest.(check bool) "different seed, different run" true (t1 <> t3)

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

let test_engine_search_errors_when_backend_down () =
  let clock = Clock.simulated () in
  let chaos =
    Chaos.create
      { Chaos.default_config with seed = 0; error_rate = 1.; delay_rate = 0. }
  in
  let t = engine ~config:{ Engine.default_config with Engine.clock; cache_capacity = 1 } ~chaos () in
  (match Engine.search t "cancer" with
  | Error msg -> Alcotest.(check bool) "error mentions backend" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "a total fault plan cannot produce a session");
  Alcotest.(check int) "no session leaked" 0 (Engine.session_count t)

let () =
  Alcotest.run "resilience"
    [
      ( "clock",
        [
          Alcotest.test_case "simulated clock" `Quick test_simulated_clock;
          Alcotest.test_case "validation" `Quick test_clock_validation;
        ] );
      (* Alcotest pads each line to the longest group name and truncates
         long test names to fit, so the printed names of the qcheck
         properties below depend on it: keep the longest group name at
         exactly 15 characters. *)
      ("clock-monotonic", [ Alcotest.test_case "real clock" `Quick test_real_clock_monotonic ]);
      ( "backoff",
        [
          Alcotest.test_case "validation" `Quick test_backoff_validation;
          QCheck_alcotest.to_alcotest qcheck_backoff_monotone_and_capped;
          QCheck_alcotest.to_alcotest qcheck_backoff_deterministic;
        ] );
      ( "retry",
        [
          Alcotest.test_case "succeeds after transients" `Quick test_retry_succeeds_after_transients;
          Alcotest.test_case "gives up" `Quick test_retry_gives_up;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick test_breaker_trips_at_threshold;
          Alcotest.test_case "cooldown and probe" `Quick test_breaker_cooldown_and_probe;
          Alcotest.test_case "probe failure reopens" `Quick test_breaker_probe_failure_reopens;
          QCheck_alcotest.to_alcotest qcheck_breaker_cooldown_is_virtual_time;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_chaos_deterministic_per_seed;
          Alcotest.test_case "eligibility" `Quick test_chaos_eligibility_keeps_stream_aligned;
          Alcotest.test_case "validation" `Quick test_chaos_validation;
        ] );
      ("deadline", [ Alcotest.test_case "expiry" `Quick test_deadline ]);
      ( "guard",
        [
          Alcotest.test_case "no exception escapes" `Quick test_guard_no_exception_escapes;
          Alcotest.test_case "retries transients" `Quick test_guard_retries_transients;
          Alcotest.test_case "chaos injection" `Quick test_guard_chaos_injection;
          Alcotest.test_case "breaker opens" `Quick test_guard_breaker_opens;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "degraded expand flagged" `Quick test_degraded_expand_flagged;
          Alcotest.test_case "plan hit not degraded" `Quick test_injected_plan_is_not_degraded;
          Alcotest.test_case "degraded cut never stored" `Quick test_degraded_cut_never_stored;
        ] );
      ( "engine-chaos",
        [
          Alcotest.test_case "survives fault plan" `Quick test_engine_survives_fault_plan;
          Alcotest.test_case "replay deterministic" `Quick test_engine_chaos_replay_deterministic;
          Alcotest.test_case "zero budget degrades" `Quick test_engine_zero_budget_degrades;
          Alcotest.test_case "backend down is an error" `Quick
            test_engine_search_errors_when_backend_down;
        ] );
    ]
