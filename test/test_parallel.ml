(* Multi-domain stress for the one-lock engine and its supporting
   concurrency primitives (DESIGN.md §11): parallel replay must agree
   with a serial replay expand-for-expand, the domain-safe metrics must
   account for every record exactly, snapshot reads must stay consistent
   and lock-free while writers race, and ownership violations must be
   caught when enforcement is on. *)

open Bionav_util
open Bionav_core
module Engine = Bionav_engine.Engine
module Q = Bionav_workload.Queries

let workload = lazy (Q.build ~config:Q.small_config ~seed:5 ())

let engine () =
  let w = Lazy.force workload in
  Engine.create ~database:w.Q.database ~eutils:w.Q.eutils ()

(* Run one session to its target under the engine lock (the same bulk
   discipline the web handler and bench use) and return its EXPAND
   count. *)
let drive_session eng q =
  match Engine.search eng q.Q.keyword with
  | Ok (Engine.Session s) ->
      let expands =
        Engine.run_locked s (fun () ->
            let nav = Engine.navigation s in
            ignore (Simulate.to_target nav ~target:q.Q.target_node);
            (Navigation.stats nav).Navigation.expands)
      in
      ignore (Engine.close eng (Engine.session_id s) : bool);
      expands
  | Ok Engine.No_results -> 0
  | Error e -> Alcotest.fail ("search failed: " ^ e)

(* Each domain's schedule: a disjoint round-robin slice of the query
   list plus query 0 shared by everyone, several rounds over. *)
let schedule ~queries ~domains d ~rounds =
  let nq = Array.length queries in
  List.concat_map
    (fun r -> [ queries.((d + (r * domains)) mod nq); queries.(0) ])
    (List.init rounds Fun.id)

let replay_total eng qs = List.fold_left (fun acc q -> acc + drive_session eng q) 0 qs

let test_multi_domain_stress () =
  let w = Lazy.force workload in
  let queries = Array.of_list w.Q.queries in
  let domains = 4 and rounds = 3 in
  (* Serial replay of the union of every domain's schedule: the
     reference expand total. *)
  Metrics.reset ();
  let serial =
    let eng = engine () in
    List.fold_left
      (fun acc d -> acc + replay_total eng (schedule ~queries ~domains d ~rounds))
      0
      (List.init domains Fun.id)
  in
  (* The same schedules, one domain each, against one engine. *)
  Metrics.reset ();
  let eng = engine () in
  let totals =
    Array.map Domain.join
      (Array.init domains (fun d ->
           Domain.spawn (fun () -> replay_total eng (schedule ~queries ~domains d ~rounds))))
  in
  let parallel = Array.fold_left ( + ) 0 totals in
  Alcotest.(check int) "no expand lost or duplicated vs serial replay" serial parallel;
  Alcotest.(check int)
    "global histogram count matches locally-counted expands" parallel
    (Metrics.count (Metrics.histogram "bionav_expand_latency_ms"));
  Alcotest.(check int) "all sessions closed" 0 (Engine.session_count eng)

(* --- lock discipline --------------------------------------------------- *)

(* Regression: a nested [run_locked] (or an engine action inside one)
   used to deadlock on the non-reentrant engine mutex; the engine now
   detects re-entry from the owning domain and raises. *)
let test_reentrant_run_locked () =
  let w = Lazy.force workload in
  let eng = engine () in
  let q = List.hd w.Q.queries in
  match Engine.search eng q.Q.keyword with
  | Ok (Engine.Session s) ->
      let raised =
        Engine.run_locked s (fun () ->
            match Engine.run_locked s (fun () -> ()) with
            | () -> false
            | exception Invalid_argument _ -> true)
      in
      Alcotest.(check bool) "nested run_locked raises Invalid_argument" true raised;
      (* The outer lock must have been released cleanly: the session
         still serves locked actions afterwards. *)
      ignore (Engine.backtrack s : bool);
      Alcotest.(check bool) "session usable after failed re-entry" true
        (Engine.run_locked s (fun () -> true))
  | Ok Engine.No_results -> Alcotest.fail "query unexpectedly empty"
  | Error e -> Alcotest.fail ("search failed: " ^ e)

(* --- snapshot isolation ------------------------------------------------ *)

(* Check one published snapshot is a single, internally consistent
   epoch: walking the children edges from the root reaches exactly the
   captured node set, the visible components partition the navigation
   tree's nodes, and every cached cardinal matches its frozen docset. A
   torn mix of epochs trips at least one of these. *)
let assert_consistent snap =
  let module Snap = Bionav_search.Nav_snapshot in
  let nav_size = Nav_tree.size (Snap.nav snap) in
  let seen = ref 0 and members = ref 0 in
  let rec go id =
    incr seen;
    let v = Snap.get snap id in
    members := !members + Array.length v.Snap.members;
    if v.Snap.distinct <> Docset.cardinal v.Snap.results then
      Alcotest.failf "epoch %d: node %d cardinal %d <> |results| %d" (Snap.epoch snap)
        id v.Snap.distinct
        (Docset.cardinal v.Snap.results);
    List.iter go v.Snap.children
  in
  go (Snap.root snap);
  if !seen <> Snap.node_count snap then
    Alcotest.failf "epoch %d: %d nodes reachable, %d captured" (Snap.epoch snap) !seen
      (Snap.node_count snap);
  if !members <> nav_size then
    Alcotest.failf "epoch %d: members cover %d of %d tree nodes" (Snap.epoch snap)
      !members nav_size

(* Readers race writers over shared sessions on 4 domains: two writer
   domains loop expand-to-exhaustion-then-backtrack while two reader
   domains hammer [Engine.snapshot], asserting every observed snapshot
   is internally consistent and that epochs never go backwards within
   one reader's stream of a session. A pure-read phase follows — reader
   domains taking snapshots and scraping [Engine.metrics_text] — and must
   not acquire the engine lock once: reads never touch the mutex. *)
let test_snapshot_isolation_stress () =
  let module Snap = Bionav_search.Nav_snapshot in
  let w = Lazy.force workload in
  let eng = engine () in
  let sessions =
    List.filter_map
      (fun q ->
        match Engine.search eng q.Q.keyword with
        | Ok (Engine.Session s) -> Some s
        | Ok Engine.No_results | Error _ -> None)
      w.Q.queries
  in
  Alcotest.(check bool) "workload produced sessions" true (sessions <> []);
  let sessions = Array.of_list sessions in
  let stop = Atomic.make false in
  let writer d () =
    let rng = Rng.create (40 + d) in
    for _ = 1 to 60 do
      let s = Rng.choice rng sessions in
      let snap = Engine.snapshot s in
      let expandable =
        List.filter (fun id -> (Snap.get snap id).Snap.expandable) (Snap.visible snap)
      in
      match expandable with
      | [] -> ignore (Engine.backtrack s : bool)
      | l -> (
          (* Losing the visibility race to the other writer is fine. *)
          try ignore (Engine.expand s (Rng.choice_list rng l) : int list)
          with Invalid_argument _ -> ())
    done
  in
  let reader d () =
    let rng = Rng.create (80 + d) in
    let last_epoch = Array.map (fun _ -> -1) sessions in
    let checks = ref 0 in
    while not (Atomic.get stop) do
      let i = Rng.int rng (Array.length sessions) in
      let snap = Engine.snapshot sessions.(i) in
      assert_consistent snap;
      if Snap.epoch snap < last_epoch.(i) then
        Alcotest.failf "session %d epoch went backwards: %d after %d" i (Snap.epoch snap)
          last_epoch.(i);
      last_epoch.(i) <- Snap.epoch snap;
      incr checks
    done;
    !checks
  in
  let readers = Array.init 2 (fun d -> Domain.spawn (reader d)) in
  let writers = Array.init 2 (fun d -> Domain.spawn (writer d)) in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  let checks = Array.fold_left (fun acc r -> acc + Domain.join r) 0 readers in
  Alcotest.(check bool) "readers observed snapshots" true (checks > 0);
  (* Quiesced: the published epoch equals the session's mutation count
     and one more consistency pass over the final snapshots holds. *)
  Array.iter (fun s -> assert_consistent (Engine.snapshot s)) sessions;
  let acq = Metrics.counter "bionav_shard_lock_acquisitions_total" in
  let before = Metrics.value acq in
  let pure_reader d () =
    let rng = Rng.create (120 + d) in
    for op = 1 to 200 do
      if op mod 64 = 0 then ignore (String.length (Engine.metrics_text eng) : int);
      assert_consistent (Engine.snapshot (Rng.choice rng sessions))
    done
  in
  Array.iter Domain.join (Array.init 2 (fun d -> Domain.spawn (pure_reader d)));
  Alcotest.(check int) "pure-read phase takes the engine lock zero times" 0
    (Metrics.value acq - before)

(* --- ownership --------------------------------------------------------- *)

let test_ownership_violation () =
  let was = Ownership.enforced () in
  Ownership.set_enforced true;
  Fun.protect
    ~finally:(fun () -> Ownership.set_enforced was)
    (fun () ->
      let arena = Docset_arena.create () in
      (* The creating domain owns the arena: mutation is fine here... *)
      ignore (Docset.of_list_in arena [ 1; 2; 3 ] : Docset.t);
      (* ...and a violation from a foreign domain that never adopted. *)
      let raised =
        Domain.join
          (Domain.spawn (fun () ->
               match Docset.of_list_in arena [ 4; 5 ] with
               | (_ : Docset.t) -> false
               | exception Ownership.Violation _ -> true))
      in
      Alcotest.(check bool) "cross-domain mutation raises Violation" true raised;
      (* An adopting domain (as under the engine lock) may mutate. *)
      let ok =
        Domain.join
          (Domain.spawn (fun () ->
               Docset_arena.adopt arena;
               match Docset.of_list_in arena [ 6 ] with
               | (_ : Docset.t) -> true
               | exception Ownership.Violation _ -> false))
      in
      Alcotest.(check bool) "adoption transfers mutation rights" true ok)

let () =
  Alcotest.run "parallel"
    [
      ( "engine",
        [
          Alcotest.test_case "multi-domain stress vs serial replay" `Quick test_multi_domain_stress;
          Alcotest.test_case "reentrant run_locked raises" `Quick test_reentrant_run_locked;
        ] );
      ( "snapshots",
        [ Alcotest.test_case "isolation under 4 domains" `Quick test_snapshot_isolation_stress ] );
      ( "ownership",
        [ Alcotest.test_case "violation + adoption" `Quick test_ownership_violation ] );
    ]
