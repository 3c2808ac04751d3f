open Bionav_util
open Bionav_core

module Q = Bionav_workload.Queries

(* The full-size seed-11 workload that `bench fig11` runs, built once for
   the tests below. *)
let workload = lazy (Q.build ~seed:11 ())


let mk parent results totals =
  Comp_tree.make ~parent ~results:(Array.map Docset.of_list results) ~totals ()

(* A random tree with Zipf-ish weights, like a navigation-tree component. *)
let random_tree seed n =
  let rng = Rng.create seed in
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  let next = ref 0 in
  let results =
    Array.init n (fun _ ->
        let k = 1 + Rng.int rng 8 in
        let l = List.init k (fun j -> !next + j) in
        (* Overlapping id ranges create duplicate citations across nodes. *)
        next := !next + (k / 2) + 1;
        Docset.of_list l)
  in
  let totals = Array.init n (fun i -> Docset.cardinal results.(i) * (2 + Rng.int rng 30)) in
  Comp_tree.make ~parent ~results ~totals ()

let is_antichain tree cut =
  let rec ancestor a b =
    let p = Comp_tree.parent tree b in
    if p = -1 then false else p = a || ancestor a p
  in
  List.for_all (fun a -> List.for_all (fun b -> a = b || not (ancestor a b)) cut) cut

let test_small_tree_uses_opt_directly () =
  let t =
    mk [| -1; 0; 0 |]
      [| [ 0 ]; List.init 20 Fun.id; List.init 20 (fun i -> 30 + i) |]
      [| 5; 60; 60 |]
  in
  let r = Heuristic.best_cut t in
  Alcotest.(check int) "reduced size = tree size" 3 r.Heuristic.reduced_size;
  Alcotest.(check bool) "valid cut" true (is_antichain t r.Heuristic.cut_children);
  Alcotest.(check bool) "non-empty" true (r.Heuristic.cut_children <> [])

let test_large_tree_reduces () =
  let t = random_tree 3 200 in
  let r = Heuristic.best_cut ~k:10 t in
  Alcotest.(check bool) "reduced to <= k" true (r.Heuristic.reduced_size <= 10);
  Alcotest.(check bool) "cut children in tree" true
    (List.for_all (fun v -> v > 0 && v < 200) r.Heuristic.cut_children);
  Alcotest.(check bool) "antichain" true (is_antichain t r.Heuristic.cut_children)

let test_deterministic () =
  let t = random_tree 5 150 in
  let a = Heuristic.best_cut t and b = Heuristic.best_cut t in
  Alcotest.(check (list int)) "same cut" a.Heuristic.cut_children b.Heuristic.cut_children

let test_many_random_trees_valid () =
  for seed = 1 to 30 do
    let n = 2 + (seed * 7 mod 120) in
    let t = random_tree seed n in
    let r = Heuristic.best_cut t in
    if not (is_antichain t r.Heuristic.cut_children) then
      Alcotest.fail (Printf.sprintf "invalid cut for seed %d" seed);
    if r.Heuristic.cut_children = [] then Alcotest.fail "empty cut"
  done

let test_k_equals_opt_on_small () =
  (* When the tree fits in k, the heuristic must equal Opt-EdgeCut. *)
  let t = random_tree 11 8 in
  let r = Heuristic.best_cut ~k:10 t in
  let sol = Opt_edgecut.solve t in
  Alcotest.(check (list int)) "same as optimal" sol.Opt_edgecut.cut_children
    r.Heuristic.cut_children

let test_elapsed_recorded () =
  let t = random_tree 13 300 in
  let r = Heuristic.best_cut t in
  Alcotest.(check bool) "non-negative time" true (r.Heuristic.elapsed_ms >= 0.)

let test_rejects_bad_input () =
  let t = mk [| -1 |] [| [ 1 ] |] [| 2 |] in
  Alcotest.(check bool) "singleton" true
    (try
       ignore (Heuristic.best_cut t);
       false
     with Invalid_argument _ -> true);
  let t2 = mk [| -1; 0 |] [| [ 1 ]; [ 2 ] |] [| 2; 2 |] in
  Alcotest.(check bool) "k too small" true
    (try
       ignore (Heuristic.best_cut ~k:1 t2);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "k too large" true
    (try
       ignore (Heuristic.best_cut ~k:100 t2);
       false
     with Invalid_argument _ -> true)

let test_plan_lifecycle () =
  let t = random_tree 21 60 in
  let report, plan = Heuristic.best_cut_with_plan ~k:8 t in
  Alcotest.(check (list int)) "plan's first cut = best_cut" (Heuristic.best_cut ~k:8 t).Heuristic.cut_children
    report.Heuristic.cut_children;
  (* Drain the plan: each replan must give a valid antichain on the original
     tree, and the plan must eventually exhaust. *)
  let rec drain plan guard =
    if guard = 0 then Alcotest.fail "plan never exhausted";
    match Heuristic.replan plan with
    | None -> Alcotest.(check bool) "exhausted flag" false (Heuristic.plan_usable plan)
    | Some (r, next) ->
        Alcotest.(check bool) "valid" true (is_antichain t r.Heuristic.cut_children);
        Alcotest.(check bool) "non-empty" true (r.Heuristic.cut_children <> []);
        Alcotest.(check bool) "shrinking" true
          (next == next && r.Heuristic.reduced_size <= report.Heuristic.reduced_size);
        drain next (guard - 1)
  in
  drain plan 50

let test_original_tree_accessor () =
  let t = random_tree 22 40 in
  let _, plan = Heuristic.best_cut_with_plan ~k:6 t in
  Alcotest.(check int) "original preserved" (Comp_tree.size t)
    (Comp_tree.size (Heuristic.original_tree plan))

(* The paper's Fig. 11 session: the oracle drill-down to prothymosin's
   target on the full-size seed-11 workload that `bench fig11` runs. Every
   EXPAND's revealed nodes (navigation-tree ids, in cut order) are pinned,
   so a change to the solver's inputs that moves any cut fails here. *)
let test_fig11_prothymosin_pinned () =
  let w = Lazy.force workload in
  let q = List.find (fun q -> q.Q.spec.Q.name = "prothymosin") w.Q.queries in
  let session = Bionav_engine.Engine.start (Navigation.bionav ()) q.Q.nav in
  let active = Navigation.active session in
  let rec drill acc =
    if Active_tree.is_visible active q.Q.target_node then List.rev acc
    else
      let root = Active_tree.component_root_of active q.Q.target_node in
      drill (Navigation.expand session root :: acc)
  in
  let cuts = drill [] in
  Alcotest.(check (list int)) "revealed counts" [ 9; 4; 4; 4; 3; 1; 1; 1 ]
    (List.map List.length cuts);
  Alcotest.(check (list (list int)))
    "cut lists"
    [
      [ 152; 609; 1212; 1733; 1979; 2092; 2697; 3600; 4095 ];
      [ 1744; 1850; 1896; 1938 ];
      [ 1752; 1807; 1820; 1833 ];
      [ 1800; 1815; 1830; 1843 ];
      [ 1751; 1799; 1802 ];
      [ 1803 ];
      [ 1804 ];
      [ 1750 ];
    ]
    cuts


(* Differential over real components: on every component an oracle
   drill-down of each of the ten Table I trees reaches (to its Table I
   target and to three more nodes spread through the tree), the lean
   component tree, the partition, the counts-only reduction and the
   solver match the set-based pipeline kept in test/ field by field, on
   every mask and on every cut. The drill itself is a Simulate trace,
   compared with the trace of a session whose every cut the oracle
   pipeline injects. *)
module Oracle = Reduced_tree_oracle

let oracle_source session =
  {
    Navigation.find_plan =
      (fun ~root ~members:_ ~members_fp:_ ->
        let act = Navigation.active session in
        let members = Active_tree.component_members act root in
        let _, _, cut, _ = Oracle.pipeline (Active_tree.nav act) ~members in
        Some cut);
    store_plan = (fun ~root:_ ~members:_ ~members_fp:_ ~cut:_ -> ());
  }

let check_component act root =
  let k = Heuristic.default_k in
  let members = Active_tree.component_members act root in
  let comp, map = Active_tree.comp_tree act root in
  let ocomp, ored, ocut, ocost = Oracle.pipeline (Active_tree.nav act) ~members in
  Alcotest.(check bool) "component tree = copying oracle" true (Oracle.same_comp_tree comp ocomp);
  Alcotest.(check bool) "map is the members" true (map == members);
  (match ored with
  | None -> ()
  | Some ored ->
      let part = Partition.run_k comp ~k in
      let same (a : Partition.result) (b : Partition.result) =
        a.assignment = b.assignment && a.roots = b.roots && Float.equal a.threshold b.threshold
      in
      Alcotest.(check bool) "partition = oracles" true
        (same part (Partition_oracle.Rebuilding.run_k ocomp ~k)
        && same part (Partition_oracle.run_k ocomp ~k));
      let red = Reduced_tree.build comp part in
      let rt = Reduced_tree.tree red and ort = Oracle.tree ored in
      Alcotest.(check bool) "reduction = union oracle" true (Oracle.same_comp_tree rt ort);
      if Comp_tree.size rt >= 2 then
        Alcotest.(check bool) "every mask and cut = oracle" true
          (Oracle.same_solver ~sets_tree:ort (Cost_model.create rt) (Cost_model.create ort)));
  let r = Heuristic.best_cut ~k comp in
  Alcotest.(check (list int)) "cut" ocut (List.map (Comp_tree.tag comp) r.Heuristic.cut_children);
  Alcotest.(check bool) "cost" true (Float.equal ocost r.Heuristic.reduced_cost)

let test_table1_components_match_oracle () =
  let w = Lazy.force workload in
  List.iter
    (fun q ->
      let n = Nav_tree.size q.Q.nav in
      List.iter
        (fun target ->
          let session = Bionav_engine.Engine.start (Navigation.bionav ()) q.Q.nav in
          let act = Navigation.active session in
          let rec drill () =
            if not (Active_tree.is_visible act target) then begin
              let root = Active_tree.component_root_of act target in
              check_component act root;
              ignore (Navigation.expand session root : int list);
              drill ()
            end
          in
          drill ();
          let traced = Bionav_engine.Engine.start (Navigation.bionav ()) q.Q.nav in
          let injected = Bionav_engine.Engine.start (Navigation.bionav ()) q.Q.nav in
          Navigation.set_plan_source injected (Some (oracle_source injected));
          let steps o =
            List.map
              (fun (r : Navigation.expand_record) -> (r.node, r.n_revealed))
              o.Simulate.history
          in
          let a = Simulate.to_target traced ~target and b = Simulate.to_target injected ~target in
          Alcotest.(check (list (pair int int))) "Simulate trace = oracle's" (steps b) (steps a);
          Alcotest.(check (list int)) "visible nodes" (Active_tree.visible (Navigation.active injected))
            (Active_tree.visible (Navigation.active traced)))
        [ q.Q.target_node; n / 4; n / 2; 3 * n / 4 ])
    w.Q.queries

(* The root component each session used to build for itself: members
   0..n-1, their subtree results, their weight folded in ascending order. *)
let oracle_root_weight nav =
  let w = ref 0. in
  for m = 0 to Nav_tree.size nav - 1 do
    let l = Nav_tree.result_count nav m in
    if l > 0 then w := !w +. (float_of_int l /. float_of_int (Nav_tree.total nav m))
  done;
  !w

(* A fresh root solve: a fresh component tree, a fresh reduction. *)
let fresh_root_cut ?(model = Probability.default_model) ~k nav =
  let comp, _ = Nav_tree.comp_tree_of nav ~root:0 ~members:(Array.init (Nav_tree.size nav) Fun.id) in
  let r, _ = Heuristic.best_cut_with_plan ~model ~k comp in
  List.sort Int.compare (List.map (Comp_tree.tag comp) r.Heuristic.cut_children)

let counter n = Metrics.value (Metrics.counter n)

(* Two sessions, a backtrack, a second k, another model and two
   interleaved plan-reusing sessions on one tree, each root cut against a
   fresh solve. *)
let check_root_memo ?(k = 10) ?(k2 = 6) nav =
  let act = Active_tree.create nav in
  Alcotest.(check (array int)) "root members" (Array.init (Nav_tree.size nav) Fun.id)
    (Active_tree.component_members act 0);
  Alcotest.(check bool) "root results" true
    (Docset.equal (Nav_tree.subtree_results nav 0) (Active_tree.component_results act 0));
  Alcotest.(check int64) "root weight, bit for bit"
    (Int64.bits_of_float (oracle_root_weight nav))
    (Int64.bits_of_float (Active_tree.component_weight act 0));
  let expand ?model ?(reuse = false) k =
    let s = Navigation.start (Navigation.bionav ?model ~k ~reuse ()) nav in
    (s, List.sort Int.compare (Navigation.expand s 0))
  in
  let builds = counter "bionav_root_reduction_builds_total" in
  let reuses = counter "bionav_root_reduction_reuses_total" in
  let fresh = fresh_root_cut ~k nav in
  let s, first = expand k in
  Alcotest.(check (list int)) "first session = fresh" fresh first;
  Alcotest.(check (list int)) "second session = fresh" fresh (snd (expand k));
  ignore (Navigation.backtrack s : bool);
  Alcotest.(check (list int)) "after backtrack = fresh" fresh
    (List.sort Int.compare (Navigation.expand s 0));
  Alcotest.(check (list int)) "second k = fresh" (fresh_root_cut ~k:k2 nav) (snd (expand k2));
  let model = Probability.static ~params:{ Probability.default_params with
    Probability.expand_cost = 4. } () in
  Alcotest.(check (list int)) "first k again, other model = fresh" (fresh_root_cut ~model ~k nav)
    (snd (expand ~model k));
  Alcotest.(check int) "builds: k, k2, k" (builds + 3)
    (counter "bionav_root_reduction_builds_total");
  Alcotest.(check int) "reuses: second session, backtrack" (reuses + 2)
    (counter "bionav_root_reduction_reuses_total");
  (* An adaptive model that learns between two sessions. *)
  let adaptive = Bionav_adaptive.Adaptive.create () in
  let learned () =
    let model = Bionav_adaptive.Adaptive.model adaptive in
    let cut = snd (expand ~model k) in
    Alcotest.(check (list int)) "adaptive model = fresh" (fresh_root_cut ~model ~k nav) cut;
    cut
  in
  List.iter
    (fun v ->
      for _ = 1 to 20 do
        Bionav_adaptive.Adaptive.observe_ignore adaptive ~concept:(Nav_tree.concept_id nav v)
      done)
    (learned ());
  Bionav_adaptive.Adaptive.refresh adaptive;
  ignore (learned () : int list);
  (* Two interleaved plan-reusing sessions replan as each does alone. *)
  let alone =
    let s, first = expand ~reuse:true k in
    first :: List.init 2 (fun _ -> List.sort Int.compare (Navigation.expand s 0))
  in
  let a = Navigation.start (Navigation.bionav ~k ~reuse:true ()) nav in
  let b = Navigation.start (Navigation.bionav ~k ~reuse:true ()) nav in
  let both = List.init 3 (fun _ ->
    let x = List.sort Int.compare (Navigation.expand a 0) in
    let y = List.sort Int.compare (Navigation.expand b 0) in
    Alcotest.(check (list int)) "interleaved sessions agree" x y; x) in
  Alcotest.(check (list (list int))) "replans = alone" alone both

let test_root_memo_table1 () =
  let w = Lazy.force workload in
  List.iter
    (fun q ->
      let nav = Nav_tree.of_database w.Q.database q.Q.result in
      check_root_memo nav;
      let child = List.hd (Nav_tree.children nav 0) in
      let r = Nav_tree.restrict nav (Nav_tree.subtree_results nav child) in
      if Nav_tree.size r >= 2 then check_root_memo r)
    w.Q.queries

let test_root_memo_facets () =
  let w = Lazy.force workload in
  let deriver = Nav_space.deriver ~medline:w.Q.medline w.Q.database in
  List.iter
    (fun q ->
      let fnav =
        Nav_space.derive deriver Nav_space.Qualifier_facet (Nav_tree.subtree_results q.Q.nav 0)
      in
      let model = Probability.facet_model in
      let cut () =
        let s = Navigation.start (Navigation.faceted ()) fnav in
        List.sort Int.compare (Navigation.expand s 0)
      in
      let fresh = fresh_root_cut ~model ~k:Heuristic.default_k fnav in
      Alcotest.(check (list int)) "facet: cold = fresh" fresh (cut ());
      Alcotest.(check (list int)) "facet: memo = fresh" fresh (cut ()))
    w.Q.queries

(* Random hierarchies with random attachments give navigation trees from
   2 nodes up, so the slot also holds no reduction (size <= k) and
   reductions smaller than k; the restriction to the even citations
   checks a derived tree's own slot. *)
let qcheck_root_memo_random =
  QCheck.Test.make ~name:"root memo = fresh solve on random trees" ~count:100
    QCheck.(triple (int_range 2 80) (int_range 2 10) (int_range 0 10_000))
    (fun (n, k, seed) ->
      let rng = Rng.create seed in
      let parents = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
      let attachments =
        List.filter_map
          (fun c ->
            if Rng.int rng 3 = 0 then None
            else Some (c, Docset.of_list (List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng 60))))
          (List.init n Fun.id)
      in
      let nav =
        Nav_tree.build ~hierarchy:(Bionav_mesh.Hierarchy.of_parents parents) ~attachments
          ~total_count:(fun c -> 100 + c)
      in
      let k2 = if k = 10 then 6 else k + 1 in
      if Nav_tree.size nav >= 2 then check_root_memo ~k ~k2 nav;
      let evens = Docset.of_list (List.init 30 (fun i -> 2 * i)) in
      let r = Nav_tree.restrict nav (Docset.inter evens (Nav_tree.subtree_results nav 0)) in
      if Nav_tree.size r >= 2 then check_root_memo ~k ~k2 r;
      true)

let qcheck_valid_cuts =
  QCheck.Test.make ~name:"heuristic cuts are always valid" ~count:100
    QCheck.(pair (int_range 2 150) (int_range 0 10_000))
    (fun (n, seed) ->
      let t = random_tree seed n in
      let r = Heuristic.best_cut t in
      r.Heuristic.cut_children <> []
      && is_antichain t r.Heuristic.cut_children
      && List.for_all (fun v -> v > 0 && v < n) r.Heuristic.cut_children)

let () =
  Alcotest.run "heuristic"
    [
      ( "unit",
        [
          Alcotest.test_case "small uses opt" `Quick test_small_tree_uses_opt_directly;
          Alcotest.test_case "large reduces" `Quick test_large_tree_reduces;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "random trees valid" `Quick test_many_random_trees_valid;
          Alcotest.test_case "k covers tree = optimal" `Quick test_k_equals_opt_on_small;
          Alcotest.test_case "elapsed recorded" `Quick test_elapsed_recorded;
          Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
          Alcotest.test_case "plan lifecycle" `Quick test_plan_lifecycle;
          Alcotest.test_case "original tree accessor" `Quick test_original_tree_accessor;
          Alcotest.test_case "fig11 prothymosin cuts pinned" `Slow test_fig11_prothymosin_pinned;
          Alcotest.test_case "Table I components = oracle pipeline" `Slow
            test_table1_components_match_oracle;
        ] );
      ( "memo",
        [
          Alcotest.test_case "root memo on Table I and restricted trees" `Slow
            test_root_memo_table1;
          Alcotest.test_case "root memo on facet spaces" `Slow test_root_memo_facets;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_valid_cuts;
          QCheck_alcotest.to_alcotest qcheck_root_memo_random;
        ] );
    ]
