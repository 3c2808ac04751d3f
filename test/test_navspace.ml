(* Navigation spaces: facet-partition exactness, refine/unrefine snapshot
   restoration, space identity through the engine, and cache behaviour on
   revisited refinements. *)

open Bionav_util
open Bionav_core
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module Medline = Bionav_corpus.Medline
module Citation = Bionav_corpus.Citation
module Qualifiers = Bionav_mesh.Qualifiers
module DB = Bionav_store.Database
module Eu = Bionav_search.Eutils
module Nav_snapshot = Bionav_search.Nav_snapshot
module Engine = Bionav_engine.Engine

(* A small corpus with a seeded, findable query word (same recipe as
   test_engine, different seeds). *)
let world =
  lazy
    (let h = S.generate ~params:S.small_params ~seed:311 () in
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
     let m = G.generate ~params ~seed:312 h in
     (m, DB.of_medline m, Eu.create m))

let engine ?config () =
  let _, database, eutils = Lazy.force world in
  Engine.create ?config ~database ~eutils ()

let must_session = function
  | Ok (Engine.Session s) -> s
  | Ok Engine.No_results -> Alcotest.fail "unexpected No_results"
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

let deriver () =
  let m, database, _ = Lazy.force world in
  Nav_space.deriver ~medline:m database

(* --- facet partition exactness ------------------------------------------ *)

(* A seeded sub-sample of the corpus' citation ids. *)
let subset_of_seed seed =
  let m, _, _ = Lazy.force world in
  let rng = Rng.create seed in
  let ids =
    Array.to_list (Medline.citations m)
    |> List.filter_map (fun c -> if Rng.int rng 3 > 0 then Some (Citation.id c) else None)
  in
  Docset.of_list ids

let check_facet_partition subset =
  let d = deriver () in
  let fnav = Nav_space.derive d Nav_space.Qualifier_facet subset in
  let root = Nav_tree.root fnav in
  (* The root covers exactly the result set... *)
  if not (Docset.equal (Nav_tree.subtree_results fnav root) subset) then
    Alcotest.fail "facet root does not cover the result set";
  (* ...and the pages partition it: cardinalities sum to the whole and the
     union reproduces it, so no citation is lost or duplicated. *)
  let pages = List.init (Nav_tree.size fnav - 1) (fun i -> i + 1) in
  let total =
    List.fold_left (fun acc i -> acc + Docset.cardinal (Nav_tree.subtree_results fnav i)) 0 pages
  in
  Alcotest.(check int) "page cardinalities sum to |L|" (Docset.cardinal subset) total;
  let union =
    Docset.union_many (List.map (fun i -> Nav_tree.subtree_results fnav i) pages)
  in
  if not (Docset.equal union subset) then Alcotest.fail "page union differs from result set";
  (* Every citation sits on the page of its primary qualifier. *)
  let m, _, _ = Lazy.force world in
  Docset.iter
    (fun id ->
      let c = Medline.citation m id in
      let concept = Nav_space.page_concept (Nav_space.primary_qualifier c) in
      match Nav_tree.node_of_concept fnav concept with
      | None -> Alcotest.fail (Printf.sprintf "citation %d: its page is absent" id)
      | Some node ->
          if not (Docset.mem id (Nav_tree.subtree_results fnav node)) then
            Alcotest.fail (Printf.sprintf "citation %d not on its primary page" id))
    subset

let test_facet_partition_full () =
  let m, _, _ = Lazy.force world in
  check_facet_partition
    (Docset.of_list (Array.to_list (Array.map Citation.id (Medline.citations m))))

let prop_facet_partition =
  QCheck.Test.make ~name:"facet pages partition any result set" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      check_facet_partition (subset_of_seed seed);
      true)

(* --- refine / unrefine through the engine ------------------------------- *)

(* Canonical rendering of everything a snapshot shows the user; two
   snapshots with equal renderings are indistinguishable to every reader. *)
let snapshot_fingerprint snap =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "query=%s space=%s depth=%d distinct=%d fp=%s\n"
       (Nav_snapshot.query snap) (Nav_snapshot.space snap)
       (Nav_snapshot.refine_depth snap)
       (Nav_snapshot.distinct_results snap)
       (Nav_snapshot.model_fingerprint snap));
  let stats = Nav_snapshot.stats snap in
  Buffer.add_string buf
    (Printf.sprintf "expands=%d revealed=%d listed=%d\n" stats.Navigation.expands
       stats.Navigation.revealed stats.Navigation.results_listed);
  Nav_snapshot.iter snap (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%s|%d|%b|%d|%s|%s\n" v.Nav_snapshot.id v.Nav_snapshot.label
           v.Nav_snapshot.distinct v.Nav_snapshot.expandable v.Nav_snapshot.parent
           (String.concat "," (List.map string_of_int v.Nav_snapshot.children))
           (String.concat ","
              (List.map string_of_int (Array.to_list v.Nav_snapshot.members)))));
  Buffer.contents buf

let first_refinable s =
  let nav = Engine.session_nav s in
  let active = Navigation.active (Engine.navigation s) in
  List.find_opt (fun v -> v <> Nav_tree.root nav) (Active_tree.visible active)

let test_refine_end_to_end () =
  let e = engine () in
  let s = must_session (Engine.search e "cancer") in
  ignore (Engine.expand s (Nav_tree.root (Engine.session_nav s)) : int list);
  Alcotest.(check string) "base space" "descriptor" (Engine.space_id s);
  Alcotest.(check int) "base depth" 0 (Engine.refine_depth s);
  let nav = Engine.session_nav s in
  let node = Option.get (first_refinable s) in
  let concept = Nav_tree.concept_id nav node in
  let expected = Docset.cardinal (Nav_tree.subtree_results nav node) in
  let narrowed = Engine.refine s node in
  Alcotest.(check int) "refined to L(n)" expected narrowed;
  Alcotest.(check string) "space id"
    (Printf.sprintf "descriptor>refine:%d" concept)
    (Engine.space_id s);
  Alcotest.(check int) "depth" 1 (Engine.refine_depth s);
  (* The derived space is live: the snapshot reflects it and expanding
     works inside it. *)
  let snap = Engine.snapshot s in
  Alcotest.(check string) "snapshot space" (Engine.space_id s) (Nav_snapshot.space snap);
  Alcotest.(check int) "snapshot results" expected (Nav_snapshot.distinct_results snap);
  ignore (Engine.expand s (Nav_tree.root (Engine.session_nav s)) : int list);
  Alcotest.(check bool) "unrefine pops" true (Engine.unrefine s);
  Alcotest.(check string) "back to base" "descriptor" (Engine.space_id s);
  Alcotest.(check bool) "nothing left to pop" false (Engine.unrefine s)

let test_refine_validates () =
  let e = engine () in
  let s = must_session (Engine.search e "cancer") in
  let nav = Engine.session_nav s in
  Alcotest.(check bool) "root refine rejected" true
    (try
       ignore (Engine.refine s (Nav_tree.root nav));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "hidden node rejected" true
    (try
       ignore (Engine.refine s (Nav_tree.size nav - 1));
       false
     with Invalid_argument _ -> true)

let test_facet_end_to_end () =
  let e = engine () in
  let s = must_session (Engine.search e "cancer") in
  let base_results = Nav_tree.distinct_results (Engine.session_nav s) in
  let pages = Engine.facet s in
  Alcotest.(check bool) "some pages" true (pages >= 1 && pages <= Qualifiers.count + 1);
  Alcotest.(check string) "facet space id" "descriptor>facets" (Engine.space_id s);
  Alcotest.(check int) "facet preserves the result set" base_results
    (Nav_tree.distinct_results (Engine.session_nav s));
  (* Faceting a facet space is refused. *)
  Alcotest.(check bool) "no facet of facet" true
    (try
       ignore (Engine.facet s);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unrefine pops the facet" true (Engine.unrefine s);
  Alcotest.(check string) "back to descriptor" "descriptor" (Engine.space_id s)

let test_faceted_strategy_search () =
  let e = engine () in
  let s = must_session (Engine.search e ~strategy:(Navigation.faceted ()) "cancer") in
  Alcotest.(check string) "starts in the qualifier space" "qualifier" (Engine.space_id s);
  Alcotest.(check int) "base of the stack" 0 (Engine.refine_depth s);
  (* Expanding the facet root reveals qualifier pages. *)
  let revealed = Engine.expand s (Nav_tree.root (Engine.session_nav s)) in
  Alcotest.(check bool) "pages revealed" true (revealed <> [])

(* A refinement made on a facet page, with a descriptor frame beneath it
   or in a session based on the facet space, is filtered out of a
   descriptor tree; it must equal the tree derived from scratch. *)
let test_refine_from_facet_frames () =
  let e = engine () in
  let d = deriver () in
  let refine_page s =
    ignore (Engine.expand s (Nav_tree.root (Engine.session_nav s)) : int list);
    let page = Option.get (first_refinable s) in
    let subset = Nav_tree.subtree_results (Engine.session_nav s) page in
    ignore (Engine.refine s page : int);
    let expected = Nav_space.derive d Nav_space.Descriptor subset in
    match
      Nav_tree_oracle.diff (Nav_tree_oracle.of_nav expected)
        (Nav_tree_oracle.of_nav (Engine.session_nav s))
    with
    | None -> ()
    | Some diff -> Alcotest.fail ("refined space differs from scratch: " ^ diff)
  in
  let s = must_session (Engine.search e "cancer") in
  ignore (Engine.facet s : int);
  refine_page s;
  Alcotest.(check int) "descriptor, facet, refined" 2 (Engine.refine_depth s);
  let s = must_session (Engine.search e ~strategy:(Navigation.faceted ()) "cancer") in
  refine_page s;
  Alcotest.(check int) "facet base, refined" 1 (Engine.refine_depth s);
  (* And a refinement inside that refined space narrows it again. *)
  refine_page s

(* Refine → unrefine restores a byte-identical user-visible snapshot (the
   epoch advances; everything else is untouched), regardless of how much
   navigation happened inside the derived space. *)
let prop_refine_roundtrip =
  QCheck.Test.make ~name:"refine/unrefine restores the snapshot" ~count:15
    QCheck.(pair (int_bound 3) (int_bound 1000))
    (fun (pre_expands, pick) ->
      let e = engine () in
      let s = must_session (Engine.search e "cancer") in
      for _ = 1 to pre_expands do
        let active = Navigation.active (Engine.navigation s) in
        match List.filter (Active_tree.is_expandable active) (Active_tree.visible active) with
        | [] -> ()
        | r :: _ -> ignore (Engine.expand s r : int list)
      done;
      let before = Engine.snapshot s in
      let nav = Engine.session_nav s in
      let active = Navigation.active (Engine.navigation s) in
      match List.filter (fun v -> v <> Nav_tree.root nav) (Active_tree.visible active) with
      | [] -> QCheck.assume_fail ()
      | candidates ->
          let node = List.nth candidates (pick mod List.length candidates) in
          ignore (Engine.refine s node : int);
          (* Navigate inside the derived space; none of it may leak out. *)
          let nav' = Engine.session_nav s in
          ignore (Engine.expand s (Nav_tree.root nav') : int list);
          if not (Engine.unrefine s) then Alcotest.fail "unrefine failed";
          let after = Engine.snapshot s in
          if Nav_snapshot.epoch after <= Nav_snapshot.epoch before then
            Alcotest.fail "epoch did not advance";
          String.equal (snapshot_fingerprint before) (snapshot_fingerprint after))

(* --- caches across revisited refinements -------------------------------- *)

(* One refinement-churn session: search, expand, refine, expand, facet,
   expand, unrefine back to the base space, then facet and expand there
   too. Returns the space id refined into, the narrowed result count and
   the transcript a user sees — every revealed node list and every
   published snapshot. *)
let churn e =
  let s = must_session (Engine.search e "cancer") in
  let transcript = ref [] in
  let record revealed =
    transcript :=
      (String.concat "," (List.map string_of_int revealed)
      ^ "\n" ^ snapshot_fingerprint (Engine.snapshot s))
      :: !transcript
  in
  let expand_root () = record (Engine.expand s (Nav_tree.root (Engine.session_nav s))) in
  expand_root ();
  let node = Option.get (first_refinable s) in
  let narrowed = Engine.refine s node in
  let space = Engine.space_id s in
  record [];
  expand_root ();
  ignore (Engine.facet s : int);
  record [];
  expand_root ();
  while Engine.unrefine s do
    record []
  done;
  ignore (Engine.facet s : int);
  record [];
  expand_root ();
  ignore (Engine.unrefine s : bool);
  record [];
  ignore (Engine.close e (Engine.session_id s) : bool);
  (space, narrowed, List.rev !transcript)

let test_revisited_refinement_hits_caches () =
  let e =
    engine
      ~config:
        { Engine.default_config with
          Engine.prefetch = Some Bionav_prefetch.Prefetch.default_config }
      ()
  in
  let hits0 = Metrics.value (Metrics.counter "bionav_cache_hits_total") in
  let space1, narrowed1, seen1 = churn e in
  let space2, narrowed2, seen2 = churn e in
  Alcotest.(check string) "same space id on revisit" space1 space2;
  Alcotest.(check int) "same result set on revisit" narrowed1 narrowed2;
  let hits1 = Metrics.value (Metrics.counter "bionav_cache_hits_total") in
  Alcotest.(check bool) "revisit served from the nav cache" true (hits1 > hits0);
  Alcotest.(check bool) "plans reused under refinement churn" true
    (Engine.plan_cache_hit_rate e > 0.);
  (* Differential: the same churn with the plan cache off must show the
     user exactly the same thing. Cached plans are keyed per space (bare
     query for the base space, query plus derivation path for refined
     and facet spaces) and verified against the exact member set; a plan
     served into the wrong space or component would reveal different
     nodes here. *)
  let off = engine () in
  let _, _, off1 = churn off in
  let _, _, off2 = churn off in
  Alcotest.(check (list string)) "cold run matches prefetch off" off1 seen1;
  Alcotest.(check (list string)) "cached run matches prefetch off" off2 seen2

(* More distinct refined and facet spaces than the tree cache holds, over
   three queries: each session refines into its first visible nodes in
   turn, facets each refined space and expands in both, then every query
   is searched again. Derived spaces are owned by their query tree, not
   cached beside it, so the re-searches must all hit; and what the user
   sees must not depend on the cache at all — the transcripts equal those
   of a cache that never evicts, and their digest is the one the plain-LRU
   cache produced. *)
let cache_churn_queries = [ "cancer"; "binding"; "pathway" ]

let cache_churn e =
  let transcript = Buffer.create 4096 in
  let record s revealed =
    Buffer.add_string transcript (String.concat "," (List.map string_of_int revealed));
    Buffer.add_char transcript '\n';
    Buffer.add_string transcript (snapshot_fingerprint (Engine.snapshot s))
  in
  let expand_root s = record s (Engine.expand s (Nav_tree.root (Engine.session_nav s))) in
  let derived = ref 0 in
  List.iter
    (fun q ->
      let s = must_session (Engine.search e q) in
      expand_root s;
      let nav = Engine.session_nav s in
      let active = Navigation.active (Engine.navigation s) in
      let nodes = List.filter (fun v -> v <> Nav_tree.root nav) (Active_tree.visible active) in
      List.iteri
        (fun i node ->
          if i < 6 then begin
            record s [ Engine.refine s node ];
            expand_root s;
            record s [ Engine.facet s ];
            expand_root s;
            derived := !derived + 2;
            while Engine.unrefine s do
              record s []
            done
          end)
        nodes;
      ignore (Engine.close e (Engine.session_id s) : bool))
    cache_churn_queries;
  let misses = Metrics.counter "bionav_cache_misses_total" in
  let misses0 = Metrics.value misses in
  List.iter
    (fun q ->
      let s = must_session (Engine.search e q) in
      expand_root s;
      ignore (Engine.close e (Engine.session_id s) : bool))
    cache_churn_queries;
  (!derived, Metrics.value misses - misses0, Buffer.contents transcript)

let test_query_trees_survive_space_churn () =
  let capacity = 8 in
  let e = engine ~config:{ Engine.default_config with Engine.cache_capacity = capacity } () in
  let derived, misses, seen = cache_churn e in
  Alcotest.(check bool) "more derived spaces than slots" true (derived > capacity);
  Alcotest.(check int) "every re-search hits" 0 misses;
  let roomy = engine ~config:{ Engine.default_config with Engine.cache_capacity = 1024 } () in
  let _, _, unevicted = cache_churn roomy in
  Alcotest.(check bool) "transcripts match a cache that never evicts" true
    (String.equal seen unevicted);
  Alcotest.(check string) "transcript digest of the plain-LRU cache"
    "fabdfd399b57ccf2a175f0ca9a8e2d57"
    (Digest.to_hex (Digest.string seen))

(* --- spaces owned by their query tree ------------------------------------ *)

let same_space what expected actual =
  match Nav_tree_oracle.diff (Nav_tree_oracle.of_nav expected) (Nav_tree_oracle.of_nav actual) with
  | None -> true
  | Some d -> QCheck.Test.fail_reportf "%s: %s differs" what d

let family_nodes nav = Nav_tree.fold_derived nav (fun _ d n -> n + Nav_tree.size d) 0

(* Reveal the top frame's root cut if nothing below the root is visible
   yet, and return the visible non-root nodes. *)
let visible_below_root s =
  let nav = Engine.session_nav s in
  let root = Nav_tree.root nav in
  let active () = Navigation.active (Engine.navigation s) in
  if Active_tree.visible (active ()) = [ root ] && Active_tree.is_expandable (active ()) root
  then ignore (Engine.expand s root : int list);
  List.filter (fun v -> v <> root) (Active_tree.visible (active ()))

(* Random refine/facet/unrefine walks on one session, with searches of
   another query in between, which evict the session's query tree from a
   1-entry cache. Each pushed space and, at the end, every space the
   query tree owns equal their derivation from scratch, node for node;
   the session keeps working on its evicted tree. *)
let prop_owned_spaces_match_derivation =
  QCheck.Test.make ~name:"owned spaces equal their derivation from scratch" ~count:20
    QCheck.(
      pair (int_range 1 2)
        (list_of_size Gen.(int_range 1 14) (pair (int_bound 3) (int_bound 1000))))
    (fun (capacity, steps) ->
      let e = engine ~config:{ Engine.default_config with Engine.cache_capacity = capacity } () in
      let d = deriver () in
      let s = must_session (Engine.search e "cancer") in
      let qnav = Engine.session_nav s in
      let derivations = Hashtbl.create 16 in
      let pushed dim subset =
        let fresh = Nav_space.derive d dim subset in
        Hashtbl.replace derivations (Engine.space_id s) fresh;
        same_space (Engine.space_id s) fresh (Engine.session_nav s)
      in
      let step (op, pick) =
        match op with
        | 0 -> (
            match visible_below_root s with
            | [] -> true
            | nodes ->
                let node = List.nth nodes (pick mod List.length nodes) in
                let subset = Nav_tree.subtree_results (Engine.session_nav s) node in
                ignore (Engine.refine s node : int);
                pushed Nav_space.Descriptor subset)
        | 1 ->
            let nav = Engine.session_nav s in
            if String.ends_with ~suffix:">facets" (Engine.space_id s) then true
            else begin
              ignore (Engine.facet s : int);
              pushed Nav_space.Qualifier_facet (Nav_tree.subtree_results nav (Nav_tree.root nav))
            end
        | 2 ->
            ignore (Engine.unrefine s : bool);
            true
        | _ ->
            let other = must_session (Engine.search e "binding") in
            ignore (Engine.close e (Engine.session_id other) : bool);
            true
      in
      List.for_all step steps
      && Nav_tree.fold_derived qnav
           (fun fid space ok -> ok && same_space fid (Hashtbl.find derivations fid) space)
           true
      &&
      (* The session still navigates, on whichever tree it holds. *)
      (ignore (visible_below_root s : int list);
       true))

(* A live session on a query tree evicted from a 1-entry cache keeps
   deriving into that tree; a new search builds a new tree with no
   spaces of its own. *)
let test_evicted_query_tree_keeps_its_spaces () =
  let e = engine ~config:{ Engine.default_config with Engine.cache_capacity = 1 } () in
  let s = must_session (Engine.search e "cancer") in
  let qnav = Engine.session_nav s in
  let other = must_session (Engine.search e "binding") in
  ignore (Engine.close e (Engine.session_id other) : bool);
  let node = List.hd (visible_below_root s) in
  ignore (Engine.refine s node : int);
  ignore (Engine.facet s : int);
  Alcotest.(check bool) "spaces owned by the evicted tree" true
    (Nav_tree.fold_derived qnav (fun _ _ n -> n + 1) 0 >= 1);
  let fresh = must_session (Engine.search e "cancer") in
  let qnav' = Engine.session_nav fresh in
  Alcotest.(check bool) "the query tree was rebuilt" true (qnav' != qnav);
  Alcotest.(check int) "the new tree owns nothing" 0
    (Nav_tree.fold_derived qnav' (fun _ _ n -> n + 1) 0);
  Alcotest.(check bool) "the old session still navigates" true
    (Engine.unrefine s && Engine.unrefine s && visible_below_root s <> [])

(* Adversarial: refine every visible node, nested three deep, and facet
   each refined space. The family grows far past its bound, so it is
   emptied on the way, and after every step it holds at most
   [family_factor] times its query tree's nodes. *)
let test_family_bound () =
  let e = engine () in
  let s = must_session (Engine.search e "cancer") in
  let qnav = Engine.session_nav s in
  let bound = Nav_tree.family_factor * Nav_tree.size qnav in
  let reached = Hashtbl.create 64 in
  let check () =
    Hashtbl.replace reached (Engine.space_id s) (Nav_tree.size (Engine.session_nav s));
    let n = family_nodes qnav in
    if n > bound then Alcotest.failf "family holds %d nodes, bound %d" n bound
  in
  let rec explore depth =
    List.iter
      (fun node ->
        ignore (Engine.refine s node : int);
        check ();
        if depth < 3 then explore (depth + 1);
        ignore (Engine.facet s : int);
        check ();
        ignore (Engine.unrefine s : bool);
        ignore (Engine.unrefine s : bool))
      (visible_below_root s)
  in
  explore 1;
  let total = Hashtbl.fold (fun _ n acc -> acc + n) reached 0 in
  Alcotest.(check bool)
    (Printf.sprintf "spaces reached (%d nodes) exceed the bound (%d)" total bound)
    true (total > bound);
  Alcotest.(check string) "back at the base" "descriptor" (Engine.space_id s);
  Alcotest.(check bool) "still navigates" true (visible_below_root s <> [])

(* A refinement on a node whose L(n) is the whole space narrows nothing:
   the frame navigates the parent tree itself and derives nothing. *)
let test_non_narrowing_refine_reuses_parent () =
  let e = engine () in
  let dh = Metrics.histogram "bionav_space_derivation_ms_descriptor" in
  let s = must_session (Engine.search e ~strategy:Navigation.Static "cancer") in
  let nav = Engine.session_nav s in
  let node =
    List.find
      (fun v -> Nav_tree.subtree_distinct nav v < Nav_tree.distinct_results nav)
      (visible_below_root s)
  in
  let concept = Nav_tree.concept_id nav node in
  ignore (Engine.refine s node : int);
  let refined = Engine.session_nav s in
  (* Every result of the refined space lies under [concept]'s node;
     reveal it by expanding its ancestors (Static reveals children). *)
  let target = Option.get (Nav_tree.node_of_concept refined concept) in
  let rec ancestors n acc =
    if n < 0 then acc else ancestors (Nav_tree.parent refined n) (n :: acc)
  in
  List.iter
    (fun a -> ignore (Engine.expand s a : int list))
    (ancestors (Nav_tree.parent refined target) []);
  let d0 = Metrics.count dh in
  Alcotest.(check int) "narrows nothing" (Nav_tree.distinct_results refined)
    (Engine.refine s target);
  Alcotest.(check bool) "the parent tree itself" true (Engine.session_nav s == refined);
  Alcotest.(check int) "nothing derived" d0 (Metrics.count dh);
  Alcotest.(check string) "space id"
    (Printf.sprintf "descriptor>refine:%d>refine:%d" concept concept)
    (Engine.space_id s)

(* A second pass over the same refine/facet sessions derives no space
   and builds no root reduction: every space and its prepared root come
   from the query trees' families, and users see the same thing. *)
let test_second_pass_derives_nothing () =
  let e = engine () in
  let count name = Metrics.count (Metrics.histogram name) in
  let counter name = Metrics.value (Metrics.counter name) in
  let read () =
    ( count "bionav_space_derivation_ms_descriptor",
      count "bionav_space_derivation_ms_qualifier",
      counter "bionav_root_reduction_builds_total",
      counter "bionav_root_reduction_reuses_total" )
  in
  let d0, q0, b0, r0 = read () in
  let derived, _, first = cache_churn e in
  let d1, q1, b1, r1 = read () in
  let _, _, second = cache_churn e in
  let d2, q2, b2, r2 = read () in
  Alcotest.(check bool) "the first pass derives" true (d1 + q1 > d0 + q0 && derived > 0);
  Alcotest.(check bool) "the first pass builds reductions" true (b1 > b0);
  Alcotest.(check int) "no descriptor derivation" d1 d2;
  Alcotest.(check int) "no facet derivation" q1 q2;
  Alcotest.(check int) "no reduction built" b1 b2;
  Alcotest.(check bool) "reductions reused" true (r2 - r1 > r1 - r0);
  Alcotest.(check bool) "same transcript" true (String.equal first second)

(* The resident-bytes gauge walks the spaces a query tree owns: a derived
   space that outlives its session is still counted. *)
let test_resident_bytes_count_owned_spaces () =
  let e = engine () in
  let bytes () = (Engine.docset_stats e).Docset_arena.bytes in
  let s = must_session (Engine.search e "cancer") in
  ignore (Engine.close e (Engine.session_id s) : bool);
  let before = bytes () in
  let s = must_session (Engine.search e "cancer") in
  ignore (Engine.refine s (List.hd (visible_below_root s)) : int);
  ignore (Engine.facet s : int);
  ignore (Engine.close e (Engine.session_id s) : bool);
  Alcotest.(check int) "no live session" 0 (Engine.session_count e);
  Alcotest.(check bool) "owned spaces counted" true (bytes () > before)

let test_derivation_histograms_populated () =
  let d = deriver () in
  let m, _, _ = Lazy.force world in
  let subset = Docset.of_list (Array.to_list (Array.map Citation.id (Medline.citations m))) in
  let dh = Metrics.histogram "bionav_space_derivation_ms_descriptor" in
  let qh = Metrics.histogram "bionav_space_derivation_ms_qualifier" in
  let d0 = Metrics.count dh and q0 = Metrics.count qh in
  ignore (Nav_space.derive d Nav_space.Descriptor subset : Nav_tree.t);
  ignore (Nav_space.derive d Nav_space.Qualifier_facet subset : Nav_tree.t);
  Alcotest.(check int) "descriptor derivation observed" (d0 + 1) (Metrics.count dh);
  Alcotest.(check int) "qualifier derivation observed" (q0 + 1) (Metrics.count qh)

let test_deriver_without_medline () =
  let _, database, _ = Lazy.force world in
  let d = Nav_space.deriver database in
  Alcotest.(check bool) "descriptor supported" true (Nav_space.supports d Nav_space.Descriptor);
  Alcotest.(check bool) "facet unsupported" false
    (Nav_space.supports d Nav_space.Qualifier_facet);
  Alcotest.(check bool) "facet derive raises" true
    (try
       ignore (Nav_space.derive d Nav_space.Qualifier_facet (Docset.of_list [ 1; 2 ]));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "navspace"
    [
      ( "facet",
        [
          Alcotest.test_case "full-corpus partition" `Quick test_facet_partition_full;
          QCheck_alcotest.to_alcotest prop_facet_partition;
        ] );
      ( "engine",
        [
          Alcotest.test_case "refine end-to-end" `Quick test_refine_end_to_end;
          Alcotest.test_case "refine validates" `Quick test_refine_validates;
          Alcotest.test_case "facet end-to-end" `Quick test_facet_end_to_end;
          Alcotest.test_case "faceted strategy" `Quick test_faceted_strategy_search;
          QCheck_alcotest.to_alcotest prop_refine_roundtrip;
          Alcotest.test_case "refine from facet frames" `Quick test_refine_from_facet_frames;
        ] );
      ( "caches",
        [
          Alcotest.test_case "revisit hits caches" `Quick test_revisited_refinement_hits_caches;
          Alcotest.test_case "query trees survive churn" `Quick
            test_query_trees_survive_space_churn;
          Alcotest.test_case "derivation histograms" `Quick
            test_derivation_histograms_populated;
          Alcotest.test_case "deriver without medline" `Quick test_deriver_without_medline;
        ] );
      ( "owned",
        [
          QCheck_alcotest.to_alcotest prop_owned_spaces_match_derivation;
          Alcotest.test_case "evicted query tree keeps its spaces" `Quick
            test_evicted_query_tree_keeps_its_spaces;
          Alcotest.test_case "family bound" `Quick test_family_bound;
          Alcotest.test_case "non-narrowing refine reuses the parent" `Quick
            test_non_narrowing_refine_reuses_parent;
          Alcotest.test_case "second pass derives nothing" `Quick
            test_second_pass_derives_nothing;
          Alcotest.test_case "resident bytes count owned spaces" `Quick
            test_resident_bytes_count_owned_spaces;
        ] );
    ]
