(* Snapshot capture against the recomputing oracle (capture_oracle.ml):
   random EXPAND / BACKTRACK / SHOWRESULTS sequences under every
   strategy, checking after each step that the published snapshot equals
   the oracle's vnode by vnode and that the active tree's per-component
   state still partitions the tree with the right counts. A seeded walk
   through the engine adds the space-changing actions and checks every
   snapshot the engine keeps, and its epoch. *)

open Bionav_util
open Bionav_core
module Nav_snapshot = Bionav_search.Nav_snapshot
module Oracle = Capture_oracle

(* Nav tree fixture (nav ids):
     0 root {}
     1   a {1,2}
     2     b {2,3}
     3     c {4}
     4   d {5,6}
     5     e {6,7}        *)
let fixture () =
  let h =
    Bionav_mesh.Hierarchy.of_parents
      ~labels:(fun i -> [| "MeSH"; "a"; "b"; "c"; "d"; "e" |].(i))
      [| -1; 0; 1; 1; 0; 4 |]
  in
  let attachments =
    [
      (1, Docset.of_list [ 1; 2 ]);
      (2, Docset.of_list [ 2; 3 ]);
      (3, Docset.of_list [ 4 ]);
      (4, Docset.of_list [ 5; 6 ]);
      (5, Docset.of_list [ 6; 7 ]);
    ]
  in
  Nav_tree.build ~hierarchy:h ~attachments ~total_count:(fun _ -> 100)

let random_tree rng n =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  let h = Bionav_mesh.Hierarchy.of_parents ~labels:(Printf.sprintf "c%d") parent in
  (* Some concepts get no citations, so the maximum embedding drops them. *)
  let attachments =
    List.filter_map
      (fun c ->
        if Rng.int rng 6 = 0 then None
        else Some (c, Docset.of_list (List.init (1 + Rng.int rng 8) (fun _ -> Rng.int rng 40))))
      (List.init (n - 1) (fun i -> i + 1))
  in
  Nav_tree.build ~hierarchy:h ~attachments ~total_count:(fun c -> 40 + (c * 7 mod 60))

(* --- comparisons ---------------------------------------------------------- *)

let pp_ints l = String.concat "," (List.map string_of_int l)

let diff_vnode (o : Nav_snapshot.vnode) (v : Nav_snapshot.vnode) =
  let field name ok = if ok then [] else [ name ] in
  List.concat
    [
      field "label" (o.label = v.label);
      field "distinct" (o.distinct = v.distinct);
      field "expandable" (o.expandable = v.expandable);
      field "parent" (o.parent = v.parent);
      field
        (Printf.sprintf "children [%s] vs [%s]" (pp_ints o.children) (pp_ints v.children))
        (o.children = v.children);
      field "members" (o.members = v.members);
      field "results" (Docset.equal o.results v.results);
    ]

(* Problems with [snap] against the oracle, and with the active tree's
   invariants; empty when everything agrees. *)
let check_state active snap =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let nav = Active_tree.nav active in
  let n = Nav_tree.size nav in
  let expected = Oracle.capture active in
  let order = List.map (fun (o : Nav_snapshot.vnode) -> o.id) expected in
  if Nav_snapshot.visible snap <> order then
    fail "visible [%s] vs oracle [%s]" (pp_ints (Nav_snapshot.visible snap)) (pp_ints order);
  if Active_tree.visible active <> order then fail "Active_tree.visible disagrees";
  if Nav_snapshot.node_count snap <> List.length order then fail "node_count";
  List.iter
    (fun (o : Nav_snapshot.vnode) ->
      match Nav_snapshot.find snap o.id with
      | None -> fail "node %d missing from snapshot" o.id
      | Some v -> (
          match diff_vnode o v with
          | [] -> ()
          | fields -> fail "node %d: %s" o.id (String.concat "; " fields)))
    expected;
  (* Active-tree invariants: the components partition the nodes, each is
     ascending and owned by its root, and the cached counts are the
     unions over the members. *)
  let seen = Array.make n 0 in
  List.iter
    (fun r ->
      let members = Active_tree.component_members active r in
      Array.iteri
        (fun i m ->
          seen.(m) <- seen.(m) + 1;
          if i > 0 && members.(i - 1) >= m then fail "component %d not ascending" r;
          if Active_tree.component_root_of active m <> r then
            fail "component_root_of %d is %d, not %d" m (Active_tree.component_root_of active m) r)
        members;
      let union = Oracle.results active r in
      if not (Docset.equal (Active_tree.component_results active r) union) then
        fail "component %d: cached results differ from the union over members" r;
      if Active_tree.component_distinct active r <> Docset.cardinal union then
        fail "component %d: cached count %d, union %d" r
          (Active_tree.component_distinct active r)
          (Docset.cardinal union);
      if Active_tree.component_weight active r <> Oracle.weight active r then
        fail "component %d: cached weight differs" r;
      let kids = Active_tree.visible_children active r in
      if kids <> List.filter (fun v -> Oracle.visible_parent active v = r) order then
        fail "component %d: visible children [%s]" r (pp_ints kids))
    order;
  Array.iteri (fun m k -> if k <> 1 then fail "node %d in %d components" m k) seen;
  for i = 0 to n - 1 do
    if Active_tree.visible_parent active i <> Oracle.visible_parent active i then
      fail "visible_parent %d" i
  done;
  if Active_tree.render active <> Oracle.render active then fail "render differs";
  List.rev !problems

(* --- the state machine ------------------------------------------------------ *)

type op = Expand of int | Backtrack | Show of int

let pp_op = function
  | Expand i -> Printf.sprintf "expand#%d" i
  | Backtrack -> "backtrack"
  | Show i -> Printf.sprintf "show#%d" i

let strategies =
  [|
    ("bionav", fun () -> Navigation.bionav ());
    ("bionav+reuse", fun () -> Navigation.bionav ~reuse:true ());
    ("static", fun () -> Navigation.Static);
    ("paged", fun () -> Navigation.Static_paged { page_size = 2 });
    ("faceted", fun () -> Navigation.faceted ());
    ("optimal", fun () -> Navigation.optimal ());
  |]

let gen_case =
  QCheck.Gen.(
    let op =
      frequency
        [
          (5, map (fun i -> Expand i) (int_bound 1000));
          (2, return Backtrack);
          (2, map (fun i -> Show i) (int_bound 1000));
        ]
    in
    quad (int_bound (Array.length strategies - 1)) (int_range 2 30) (int_bound 100_000)
      (list_size (int_range 1 25) op))

let print_case (s, n, seed, ops) =
  Printf.sprintf "strategy=%s n=%d seed=%d ops=[%s]" (fst strategies.(s)) n seed
    (String.concat " " (List.map pp_op ops))

let qcheck_capture_matches_oracle =
  QCheck.Test.make ~name:"capture = oracle after every step" ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (s, n, seed, ops) ->
      let name, strategy = strategies.(s) in
      (* The exact solver is exponential: keep its trees small. *)
      let n = if name = "optimal" then min n 10 else n in
      let nav = random_tree (Rng.create seed) n in
      let navigation = Navigation.start (strategy ()) nav in
      let active = Navigation.active navigation in
      (* A plan source that checks every key it is handed and answers
         from what it stored. *)
      let plans = Hashtbl.create 8 in
      let key_problems = ref [] in
      let check_key ~root ~members ~members_fp =
        let expected = Docset.of_list (Oracle.members active root) in
        if not (Docset.equal members expected) then
          key_problems := Printf.sprintf "stale member key at %d" root :: !key_problems;
        if members_fp <> Docset.fingerprint members then
          key_problems := Printf.sprintf "stale member fingerprint at %d" root :: !key_problems;
        (root, members_fp)
      in
      Navigation.set_plan_source navigation
        (Some
           {
             Navigation.find_plan =
               (fun ~root ~members ~members_fp ->
                 Hashtbl.find_opt plans (check_key ~root ~members ~members_fp));
             store_plan =
               (fun ~root ~members ~members_fp ~cut ->
                 Hashtbl.replace plans (check_key ~root ~members ~members_fp) cut);
           });
      let pick l i = match l with [] -> None | _ -> Some (List.nth l (i mod List.length l)) in
      let step epoch op =
        (match op with
        | Expand i -> (
            let expandable =
              List.filter (Active_tree.is_expandable active) (Active_tree.visible active)
            in
            match pick expandable i with
            | Some root -> ignore (Navigation.expand navigation root : int list)
            | None -> ())
        | Backtrack -> ignore (Navigation.backtrack navigation : bool)
        | Show i -> (
            match pick (Active_tree.visible active) i with
            | Some v ->
                let shown = Navigation.show_results navigation v in
                if not (Docset.equal shown (Oracle.results active v)) then
                  key_problems := Printf.sprintf "show %d: wrong results" v :: !key_problems
            | None -> ()));
        let snap = Nav_snapshot.capture ~epoch ~query:"q" navigation in
        check_state active snap @ List.rev !key_problems
      in
      let rec run epoch = function
        | [] -> true
        | op :: rest -> (
            match step epoch op with
            | [] -> run (epoch + 1) rest
            | problems ->
                QCheck.Test.fail_reportf "after step %d (%s): %s" epoch (pp_op op)
                  (String.concat " | " problems))
      in
      match check_state active (Nav_snapshot.capture ~epoch:0 ~query:"q" navigation) with
      | [] -> run 1 ops
      | problems -> QCheck.Test.fail_reportf "at start: %s" (String.concat " | " problems))

(* --- unit cases -------------------------------------------------------------- *)

let test_cut_above_revealed () =
  (* Reveal 2 first (its visible parent is the root), then cut at 1 above
     it: 2 must move under 1, and the counts follow. *)
  let navigation = Navigation.start Navigation.Static (fixture ()) in
  let active = Navigation.active navigation in
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 2; 5 ]);
  Alcotest.(check (list int)) "root's children" [ 2; 5 ] (Active_tree.visible_children active 0);
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 1 ]);
  Alcotest.(check int) "2 now under 1" 1 (Active_tree.visible_parent active 2);
  Alcotest.(check (list int)) "root's children" [ 1; 5 ] (Active_tree.visible_children active 0);
  Alcotest.(check (list int)) "1's children" [ 2 ] (Active_tree.visible_children active 1);
  Alcotest.(check (list int)) "1's component" [ 1; 3 ] (Active_tree.component active 1);
  (* {1,2} u {4} *)
  Alcotest.(check int) "1's count" 3 (Active_tree.component_distinct active 1);
  let snap = Nav_snapshot.capture ~epoch:1 ~query:"q" navigation in
  Alcotest.(check (list string)) "matches the oracle" [] (check_state active snap);
  Alcotest.(check (list int)) "snapshot children of 1" [ 2 ] (Nav_snapshot.get snap 1).children

let test_backtrack_cut_above_revealed () =
  let navigation = Navigation.start Navigation.Static (fixture ()) in
  let active = Navigation.active navigation in
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 2; 5 ]);
  let before = Nav_snapshot.capture ~epoch:0 ~query:"q" navigation in
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 1 ]);
  Alcotest.(check bool) "undone" true (Active_tree.backtrack active);
  Alcotest.(check int) "2 back under the root" 0 (Active_tree.visible_parent active 2);
  Alcotest.(check (list int)) "root's children" [ 2; 5 ] (Active_tree.visible_children active 0);
  Alcotest.(check (list int)) "root's component" [ 0; 1; 3; 4 ] (Active_tree.component active 0);
  let after = Nav_snapshot.capture ~epoch:1 ~query:"q" navigation in
  Alcotest.(check (list string)) "matches the oracle" [] (check_state active after);
  List.iter
    (fun id ->
      Alcotest.(check (list string))
        (Printf.sprintf "node %d as before the cut" id)
        [] (diff_vnode (Nav_snapshot.get before id) (Nav_snapshot.get after id)))
    (Nav_snapshot.visible before)

let test_member_key_reused () =
  let active = Active_tree.create (fixture ()) in
  let key = fst (Active_tree.component_key active 0) in
  Alcotest.(check bool) "same handle while unchanged" true
    (fst (Active_tree.component_key active 0) == key);
  Alcotest.(check bool) "fingerprint kept with it" true
    (Active_tree.component_key active 0 == Active_tree.component_key active 0);
  ignore (Active_tree.apply_cut active ~root:0 ~cut_children:[ 1 ]);
  let upper = fst (Active_tree.component_key active 0) in
  Alcotest.(check (list int)) "new key after a cut" [ 0; 4; 5 ] (Docset.elements upper);
  ignore (Active_tree.backtrack active);
  Alcotest.(check bool) "restored by backtrack" true (fst (Active_tree.component_key active 0) == key)

let test_whole_tree_results_shared () =
  let nav = fixture () in
  let active = Active_tree.create nav in
  Alcotest.(check bool) "the tree's own subtree set" true
    (Active_tree.component_results active 0 == Nav_tree.subtree_results nav 0)

(* --- engine snapshots ---------------------------------------------------------- *)

(* One snapshot is a single, internally consistent epoch: walking the
   children edges from the root reaches exactly the captured node set,
   the visible components partition the navigation tree's nodes, and
   every cached cardinal matches its docset. *)
let assert_consistent snap =
  let module Snap = Nav_snapshot in
  let nav_size = Nav_tree.size (Snap.nav snap) in
  let seen = ref 0 and members = ref 0 in
  let rec go id =
    incr seen;
    let v = Snap.get snap id in
    members := !members + Array.length v.Snap.members;
    if v.Snap.distinct <> Docset.cardinal v.Snap.results then
      Alcotest.failf "epoch %d: node %d cardinal %d <> |results| %d" (Snap.epoch snap) id
        v.Snap.distinct
        (Docset.cardinal v.Snap.results);
    List.iter go v.Snap.children
  in
  go (Snap.root snap);
  if !seen <> Snap.node_count snap then
    Alcotest.failf "epoch %d: %d nodes reachable, %d captured" (Snap.epoch snap) !seen
      (Snap.node_count snap);
  if !members <> nav_size then
    Alcotest.failf "epoch %d: members cover %d of %d tree nodes" (Snap.epoch snap) !members
      nav_size

let workload =
  lazy (Bionav_workload.Queries.(build ~config:small_config ~seed:5 ()))

(* A seeded serial walk over expand, backtrack, refine, facet and
   unrefine on engine sessions. After every step the session's snapshot
   must be consistent and describe the session's current space, and its
   epoch must have gone up by exactly one if the action completed and not
   at all if it was refused (refining the root, faceting a facet space,
   an expand with nothing to expand). *)
let test_engine_walk_snapshots () =
  let module Engine = Bionav_engine.Engine in
  let module Q = Bionav_workload.Queries in
  let w = Lazy.force workload in
  let t = Engine.create ~database:w.Q.database ~eutils:w.Q.eutils () in
  let rng = Rng.create 17 in
  let completed = Hashtbl.create 8 and refused = ref 0 in
  List.iter
    (fun q ->
      match Engine.search t q.Q.keyword with
      | Ok Engine.No_results -> ()
      | Error e -> Alcotest.fail ("search failed: " ^ e)
      | Ok (Engine.Session s) ->
          assert_consistent (Engine.snapshot s);
          for step = 1 to 40 do
            let before = Nav_snapshot.epoch (Engine.snapshot s) in
            let visible = Active_tree.visible (Navigation.active (Engine.navigation s)) in
            let action, run =
              match Rng.int rng 6 with
              | 0 | 1 ->
                  let expandable =
                    List.filter
                      (Active_tree.is_expandable (Navigation.active (Engine.navigation s)))
                      visible
                  in
                  ( "expand",
                    fun () ->
                      match expandable with
                      | [] -> invalid_arg "nothing to expand"
                      | l -> ignore (Engine.expand s (Rng.choice_list rng l) : int list) )
              | 2 -> ("backtrack", fun () -> ignore (Engine.backtrack s : bool))
              | 3 -> ("refine", fun () -> ignore (Engine.refine s (Rng.choice_list rng visible) : int))
              | 4 -> ("facet", fun () -> ignore (Engine.facet s : int))
              | _ -> ("unrefine", fun () -> ignore (Engine.unrefine s : bool))
            in
            let expected =
              match run () with
              | () ->
                  Hashtbl.replace completed action ();
                  before + 1
              | exception Invalid_argument _ ->
                  incr refused;
                  before
            in
            let snap = Engine.snapshot s in
            if Nav_snapshot.epoch snap <> expected then
              Alcotest.failf "%s step %d (%s): epoch %d, expected %d" q.Q.keyword step action
                (Nav_snapshot.epoch snap) expected;
            if Nav_snapshot.space snap <> Engine.space_id s then
              Alcotest.failf "%s step %d (%s): snapshot space %s, session space %s" q.Q.keyword
                step action (Nav_snapshot.space snap) (Engine.space_id s);
            assert_consistent snap
          done;
          ignore (Engine.close t (Engine.session_id s) : bool))
    (List.filteri (fun i _ -> i < 3) w.Q.queries);
  List.iter
    (fun a -> Alcotest.(check bool) ("walk completed " ^ a) true (Hashtbl.mem completed a))
    [ "expand"; "backtrack"; "refine"; "facet"; "unrefine" ];
  Alcotest.(check bool) "walk hit refused actions" true (!refused > 0)

let () =
  Alcotest.run "capture"
    [
      ( "unit",
        [
          Alcotest.test_case "cut above a revealed node" `Quick test_cut_above_revealed;
          Alcotest.test_case "backtrack that cut" `Quick test_backtrack_cut_above_revealed;
          Alcotest.test_case "member key reused" `Quick test_member_key_reused;
          Alcotest.test_case "whole tree needs no union" `Quick test_whole_tree_results_shared;
        ] );
      ("differential", [ QCheck_alcotest.to_alcotest qcheck_capture_matches_oracle ]);
      ("engine", [ Alcotest.test_case "walk snapshots consistent" `Quick test_engine_walk_snapshots ]);
    ]
