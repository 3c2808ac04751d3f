open Bionav_util
open Bionav_core
module H = Bionav_mesh.Hierarchy
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module DB = Bionav_store.Database

(* Hierarchy (hierarchy ids):
     0 root
     1 "Biological Phenomena"      (empty)
     2   "Cell Physiology"         {1,2}
     3     "Cell Death"            (empty, lifted)
     4       "Apoptosis"           {3,4}
     5       "Necrosis"            (empty leaf, dropped)
     6   "Cell Growth"             (empty, lifted)
     7     "Cell Proliferation"    {2,5,6}
     8 "Chemicals"                 (empty leaf, dropped)  *)
let labels =
  [|
    "MeSH"; "Biological Phenomena"; "Cell Physiology"; "Cell Death"; "Apoptosis"; "Necrosis";
    "Cell Growth"; "Cell Proliferation"; "Chemicals";
  |]

let hierarchy () = H.of_parents ~labels:(fun i -> labels.(i)) [| -1; 0; 1; 2; 3; 3; 1; 6; 0 |]

let attachments =
  [ (2, Docset.of_list [ 1; 2 ]); (4, Docset.of_list [ 3; 4 ]); (7, Docset.of_list [ 2; 5; 6 ]) ]

let totals = [| 0; 50; 10; 20; 30; 5; 40; 25; 60 |]

let build () =
  Nav_tree.build ~hierarchy:(hierarchy ()) ~attachments ~total_count:(fun c -> totals.(c))

let test_maximum_embedding_shape () =
  let t = build () in
  (* Kept: root, Cell Physiology, Apoptosis (lifted under Cell Physiology),
     Cell Proliferation (lifted under root? no — under Biological Phenomena
     which is empty, itself lifted to root). *)
  Alcotest.(check int) "size" 4 (Nav_tree.size t);
  let labels_found = List.init 4 (Nav_tree.label t) in
  Alcotest.(check (list string)) "preorder labels"
    [ "MeSH"; "Cell Physiology"; "Apoptosis"; "Cell Proliferation" ]
    labels_found

let test_embedding_preserves_ancestry () =
  let t = build () in
  (* Apoptosis was a great-grandchild of Biological Phenomena via Cell Death;
     after embedding its parent is Cell Physiology (nearest kept ancestor). *)
  let apoptosis = Option.get (Nav_tree.node_of_concept t 4) in
  let physiology = Option.get (Nav_tree.node_of_concept t 2) in
  Alcotest.(check int) "lifted parent" physiology (Nav_tree.parent t apoptosis);
  let proliferation = Option.get (Nav_tree.node_of_concept t 7) in
  Alcotest.(check int) "lifted to root" 0 (Nav_tree.parent t proliferation)

let test_empty_nodes_dropped () =
  let t = build () in
  List.iter
    (fun c ->
      Alcotest.(check (option int)) (Printf.sprintf "concept %d dropped" c) None
        (Nav_tree.node_of_concept t c))
    [ 1; 3; 5; 6; 8 ]

let test_counts () =
  let t = build () in
  Alcotest.(check int) "distinct results" 6 (Nav_tree.distinct_results t);
  Alcotest.(check int) "attached with duplicates" 7 (Nav_tree.total_attached t);
  let physiology = Option.get (Nav_tree.node_of_concept t 2) in
  Alcotest.(check int) "L" 2 (Nav_tree.result_count t physiology);
  Alcotest.(check int) "LT" 10 (Nav_tree.total t physiology);
  (* Subtree distinct of Cell Physiology = {1,2} u {3,4} = 4. *)
  Alcotest.(check int) "subtree distinct" 4 (Nav_tree.subtree_distinct t physiology)

let test_root_subtree_distinct_is_result_size () =
  let t = build () in
  Alcotest.(check int) "root covers all" (Nav_tree.distinct_results t)
    (Nav_tree.subtree_distinct t 0)

let test_height_width () =
  let t = build () in
  Alcotest.(check int) "height" 2 (Nav_tree.height t);
  Alcotest.(check int) "width" 2 (Nav_tree.max_width t)

let test_in_subtree () =
  let t = build () in
  let physiology = Option.get (Nav_tree.node_of_concept t 2) in
  let apoptosis = Option.get (Nav_tree.node_of_concept t 4) in
  let proliferation = Option.get (Nav_tree.node_of_concept t 7) in
  Alcotest.(check bool) "contains descendant" true
    (Nav_tree.in_subtree t ~root:physiology apoptosis);
  Alcotest.(check bool) "self" true (Nav_tree.in_subtree t ~root:physiology physiology);
  Alcotest.(check bool) "not sibling branch" false
    (Nav_tree.in_subtree t ~root:physiology proliferation);
  Alcotest.(check bool) "root contains all" true (Nav_tree.in_subtree t ~root:0 apoptosis)

let test_comp_tree_of_full () =
  let t = build () in
  let comp, map = Nav_tree.comp_tree_of t ~root:0 ~members:[| 0; 1; 2; 3 |] in
  Alcotest.(check int) "size" 4 (Comp_tree.size comp);
  Alcotest.(check (array int)) "map" [| 0; 1; 2; 3 |] map;
  Alcotest.(check int) "tags are nav ids" 2 (Comp_tree.tag comp 2);
  Alcotest.(check int) "parents preserved" 1 (Comp_tree.parent comp 2)

let test_comp_tree_of_partial () =
  let t = build () in
  let physiology = Option.get (Nav_tree.node_of_concept t 2) in
  let apoptosis = Option.get (Nav_tree.node_of_concept t 4) in
  let comp, _ = Nav_tree.comp_tree_of t ~root:physiology ~members:[| physiology; apoptosis |] in
  Alcotest.(check int) "two nodes" 2 (Comp_tree.size comp);
  Alcotest.(check string) "root label" "Cell Physiology" (Comp_tree.label comp 0)

let test_comp_tree_of_rejects_disconnected () =
  let t = build () in
  let apoptosis = Option.get (Nav_tree.node_of_concept t 4) in
  Alcotest.(check bool) "disconnected" true
    (try
       ignore (Nav_tree.comp_tree_of t ~root:0 ~members:[| 0; apoptosis |]);
       false
     with Invalid_argument _ -> true)

let test_build_rejects_bad_attachment () =
  let h = hierarchy () in
  Alcotest.(check bool) "unknown concept" true
    (try
       ignore
         (Nav_tree.build ~hierarchy:h
            ~attachments:[ (99, Docset.singleton 1) ]
            ~total_count:(fun _ -> 10));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate attachment" true
    (try
       ignore
         (Nav_tree.build ~hierarchy:h
            ~attachments:[ (2, Docset.singleton 1); (2, Docset.singleton 2) ]
            ~total_count:(fun _ -> 10));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "total < attached" true
    (try
       ignore
         (Nav_tree.build ~hierarchy:h
            ~attachments:[ (2, Docset.of_list [ 1; 2; 3 ]) ]
            ~total_count:(fun _ -> 1));
       false
     with Invalid_argument _ -> true)

let test_root_only_tree () =
  let h = hierarchy () in
  let t = Nav_tree.build ~hierarchy:h ~attachments:[] ~total_count:(fun _ -> 0) in
  Alcotest.(check int) "just the root" 1 (Nav_tree.size t);
  Alcotest.(check int) "no results" 0 (Nav_tree.distinct_results t)

(* Integration: of_database consistency on a generated corpus. *)
let test_of_database_consistency () =
  let h = S.generate ~params:S.small_params ~seed:61 () in
  let m = G.generate ~params:{ G.small_params with G.n_citations = 250 } ~seed:62 h in
  let db = DB.of_medline m in
  let result = Docset.of_list (List.init 40 (fun i -> i * 3)) in
  let t = Nav_tree.of_database db result in
  (* Every nav node's direct results are a subset of the query result, and
     all nodes except the root are non-empty. *)
  for node = 1 to Nav_tree.size t - 1 do
    let l = Nav_tree.results t node in
    Alcotest.(check bool) "non-empty" true (not (Docset.is_empty l));
    Alcotest.(check bool) "subset of result" true (Docset.subset l result);
    Alcotest.(check bool) "LT >= L" true
      (Nav_tree.total t node >= Nav_tree.result_count t node)
  done;
  Alcotest.(check int) "root distinct = |result|" (Docset.cardinal result)
    (Nav_tree.distinct_results t);
  (* Parent relationships respect hierarchy ancestry. *)
  for node = 1 to Nav_tree.size t - 1 do
    let p = Nav_tree.parent t node in
    if p <> 0 then
      Alcotest.(check bool) "parent concept is ancestor" true
        (H.is_ancestor h (Nav_tree.concept_id t p) (Nav_tree.concept_id t node))
  done

let test_of_database_distinct_monotone () =
  let h = S.generate ~params:S.small_params ~seed:63 () in
  let m = G.generate ~params:{ G.small_params with G.n_citations = 250 } ~seed:64 h in
  let db = DB.of_medline m in
  let t = Nav_tree.of_database db (Docset.of_list (List.init 30 Fun.id)) in
  for node = 1 to Nav_tree.size t - 1 do
    Alcotest.(check bool) "child subtree counts bounded by parent" true
      (Nav_tree.subtree_distinct t node
      <= Nav_tree.subtree_distinct t (Nav_tree.parent t node))
  done

(* of_database buckets straight into docsets; building from the Intset
   buckets is the reference. Trees and their sets must agree node for
   node. *)
let test_of_database_matches_reference () =
  let h = S.generate ~params:S.small_params ~seed:65 () in
  let m = G.generate ~params:{ G.small_params with G.n_citations = 400 } ~seed:66 h in
  let db = DB.of_medline m in
  List.iter
    (fun ids ->
      let result = Docset.of_list ids in
      let t = Nav_tree.of_database db result in
      let attachments =
        List.map
          (fun (c, s) -> (c, Docset.of_intset s))
          (DB.concepts_of_result db (Docset.to_intset result))
      in
      let r =
        Nav_tree.build ~hierarchy:(DB.hierarchy db) ~attachments ~total_count:(DB.total_count db)
      in
      Alcotest.(check int) "size" (Nav_tree.size r) (Nav_tree.size t);
      for v = 0 to Nav_tree.size t - 1 do
        Alcotest.(check int) "concept" (Nav_tree.concept_id r v) (Nav_tree.concept_id t v);
        Alcotest.(check int) "parent" (Nav_tree.parent r v) (Nav_tree.parent t v);
        Alcotest.(check int) "total" (Nav_tree.total r v) (Nav_tree.total t v);
        Alcotest.(check string) "label" (Nav_tree.label r v) (Nav_tree.label t v);
        Alcotest.(check bool) "results" true
          (Docset.equal (Nav_tree.results r v) (Nav_tree.results t v));
        Alcotest.(check int) "subtree distinct" (Nav_tree.subtree_distinct r v)
          (Nav_tree.subtree_distinct t v);
        Alcotest.(check bool) "subtree results" true
          (Docset.equal (Nav_tree.subtree_results r v) (Nav_tree.subtree_results t v))
      done)
    [ List.init 60 (fun i -> i * 5); List.init 400 Fun.id; [ 7 ]; [] ]

(* --- differential: rank-ordered build and restriction ------------------- *)

module Oracle = Nav_tree_oracle

let check_same what expected actual =
  match Oracle.diff expected actual with
  | None -> true
  | Some d -> QCheck.Test.fail_reportf "%s: %s differs" what d

(* Random hierarchies (parents-first ids, not preorder) with random
   attachments over a small citation range. *)
let gen_attached_hierarchy =
  QCheck.make
    ~print:(fun (parents, att) ->
      Printf.sprintf "parents=[%s] attachments=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int parents)))
        (String.concat "; "
           (List.map
              (fun (c, l) -> Printf.sprintf "%d:{%s}" c (String.concat "," (List.map string_of_int l)))
              att)))
    QCheck.Gen.(
      int_range 1 40 >>= fun n ->
      let rec parents i acc =
        if i >= n then return (Array.of_list (List.rev acc))
        else int_range 0 (i - 1) >>= fun p -> parents (i + 1) (p :: acc)
      in
      parents 1 [ -1 ] >>= fun parents ->
      let concept = oneof [ return 0; int_range 0 (n - 1) ] in
      list_size (int_range 0 n) (pair concept (list_size (int_range 0 4) (int_range 0 30)))
      >>= fun att ->
      (* One attachment per concept, as the builders require. *)
      let seen = Hashtbl.create 16 in
      return
        ( parents,
          List.filter
            (fun (c, _) ->
              if Hashtbl.mem seen c then false
              else begin
                Hashtbl.add seen c ();
                true
              end)
            att ))

let prop_build_matches_oracle =
  QCheck.Test.make ~name:"build equals the rose-tree embedding" ~count:300
    gen_attached_hierarchy (fun (parents, att) ->
      let hierarchy = H.of_parents parents in
      let attachments = List.map (fun (c, l) -> (c, Docset.of_list l)) att in
      let total_count c = 40 + (7 * c mod 11) in
      check_same "build"
        (Oracle.build ~hierarchy ~attachments ~total_count)
        (Oracle.of_nav (Nav_tree.build ~hierarchy ~attachments ~total_count)))

(* A generated corpus served by both association backends: the in-memory
   table and a segment store ingested into a scratch directory. *)
let corpus =
  lazy
    (let h = S.generate ~params:S.small_params ~seed:67 () in
     let m = G.generate ~params:{ G.small_params with G.n_citations = 400 } ~seed:68 h in
     let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "bionav-navtree-%d" (Unix.getpid ()))
     in
     let rec rm_rf path =
       match Unix.lstat path with
       | { Unix.st_kind = Unix.S_DIR; _ } ->
           Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
           Unix.rmdir path
       | _ -> Sys.remove path
       | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
     in
     rm_rf dir;
     ignore (Bionav_segstore.Ingest.ingest_medline ~dir m : Bionav_segstore.Ingest.summary);
     at_exit (fun () -> rm_rf dir);
     let store = Bionav_segstore.Store.open_dir dir in
     (m, [ ("memory", DB.of_medline m); ("segstore", Bionav_segstore.Bridge.database store h) ]))

let backends () = snd (Lazy.force corpus)

let random_subset rng n_cit =
  Docset.of_list (List.filter (fun _ -> Rng.int rng 3 = 0) (List.init n_cit Fun.id))

let prop_of_database_matches_oracle =
  QCheck.Test.make ~name:"of_database equals the oracle on both backends" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let m, _ = Lazy.force corpus in
      let result = random_subset (Rng.create seed) (Bionav_corpus.Medline.size m) in
      List.for_all
        (fun (name, db) ->
          check_same name (Oracle.of_database db result) (Oracle.of_nav (Nav_tree.of_database db result)))
        (backends ()))

(* S ⊆ results(t): empty, one citation, one node's subtree set, the full
   set, or a random subset; then a second restriction of the restricted
   tree to one of its own subtree sets, as a refine inside a refine. *)
let pick_subset rng t kind =
  let all = Nav_tree.subtree_results t (Nav_tree.root t) in
  let elements = Docset.to_array all in
  match kind with
  | 0 -> Docset.empty
  | 1 when Array.length elements > 0 ->
      Docset.singleton elements.(Rng.int rng (Array.length elements))
  | 2 -> Nav_tree.subtree_results t (Rng.int rng (Nav_tree.size t))
  | 3 -> all
  | _ -> Docset.of_list (List.filter (fun _ -> Rng.bool rng) (Array.to_list elements))

let prop_restrict_matches_of_database =
  QCheck.Test.make ~name:"restrict equals of_database of the subset on both backends"
    ~count:60
    QCheck.(pair (int_bound 4) (int_bound 100_000))
    (fun (kind, seed) ->
      let m, _ = Lazy.force corpus in
      List.for_all
        (fun (name, db) ->
          let rng = Rng.create seed in
          let t = Nav_tree.of_database db (random_subset rng (Bionav_corpus.Medline.size m)) in
          let s = pick_subset rng t kind in
          let r = Nav_tree.restrict t s in
          check_same name (Oracle.of_nav (Nav_tree.of_database db s)) (Oracle.of_nav r)
          &&
          let s' = pick_subset rng r 2 in
          check_same (name ^ ", nested")
            (Oracle.of_nav (Nav_tree.of_database db s'))
            (Oracle.of_nav (Nav_tree.restrict r s')))
        (backends ()))

(* --- differential: the flat passes against the builders they replaced - *)

let check_shares what t =
  match Oracle.unshared t with
  | None -> true
  | Some i -> QCheck.Test.fail_reportf "%s: subtree set of node %d is not its equal operand" what i

(* Build: the same values as the rank-sorted oracle, and the same sets
   shared: each subtree set is physically the operand that
   [Docset.union_many] would have returned. *)
let check_build what ~hierarchy ~attachments ~total_count =
  let lib = Oracle.of_nav (Nav_tree.build ~hierarchy ~attachments ~total_count) in
  let oracle = Oracle.sorted_build ~hierarchy ~attachments ~total_count in
  check_same what oracle lib
  && (Oracle.sharing oracle = Oracle.sharing lib
     || QCheck.Test.fail_reportf "%s: sharing differs from the oracle" what)
  && check_shares what lib

(* Restrict: the same values as the masked oracle; every set the oracle
   takes from [t] is [t]'s own value in the library's tree too, and the
   sharing rule holds. *)
let check_restrict what t s =
  let r = Nav_tree.restrict t s in
  let parent = Oracle.of_nav t and lib = Oracle.of_nav r in
  let oracle = Oracle.masked_restrict parent s in
  check_same what oracle lib
  && check_shares what lib
  &&
  let kept_shared get =
    Array.for_all Fun.id
      (Array.mapi
         (fun i c ->
           let old = Option.get (Nav_tree.node_of_concept t c) in
           get oracle i != get parent old || get lib i == get parent old)
         lib.Oracle.concept_ids)
  in
  (kept_shared (fun t i -> t.Oracle.results.(i))
   && kept_shared (fun t i -> t.Oracle.subtree_sets.(i)))
  || QCheck.Test.fail_reportf "%s: a set inside S is not the parent's own" what

let total_count c = 40 + (7 * c mod 11)

let prop_build_matches_sorted_oracle =
  QCheck.Test.make ~name:"build equals the rank-sorted build, sharing included" ~count:300
    gen_attached_hierarchy (fun (parents, att) ->
      check_build "build" ~hierarchy:(H.of_parents parents)
        ~attachments:(List.map (fun (c, l) -> (c, Docset.of_list l)) att)
        ~total_count)

let prop_restrict_matches_masked_oracle =
  QCheck.Test.make ~name:"restrict equals the masked restriction, nested too" ~count:300
    QCheck.(pair gen_attached_hierarchy (pair (int_bound 4) (int_bound 100_000)))
    (fun ((parents, att), (kind, seed)) ->
      let rng = Rng.create seed in
      let t =
        Nav_tree.build ~hierarchy:(H.of_parents parents)
          ~attachments:(List.map (fun (c, l) -> (c, Docset.of_list l)) att)
          ~total_count
      in
      let s = pick_subset rng t kind in
      check_restrict "restrict" t s
      &&
      let r = Nav_tree.restrict t s in
      check_restrict "nested" r (pick_subset rng r (Rng.int rng 5)))

(* A subset of all of a tree's results narrows nothing: the restriction
   is the tree, node for node. The engine relies on this to navigate the
   parent tree itself instead of restricting it. *)
let prop_restrict_to_all_is_identity =
  QCheck.Test.make ~name:"restrict to all of a tree's results is the tree" ~count:300
    gen_attached_hierarchy (fun (parents, att) ->
      let t =
        Nav_tree.build ~hierarchy:(H.of_parents parents)
          ~attachments:(List.map (fun (c, l) -> (c, Docset.of_list l)) att)
          ~total_count
      in
      check_same "restrict to all" (Oracle.of_nav t)
        (Oracle.of_nav (Nav_tree.restrict t (Nav_tree.subtree_results t (Nav_tree.root t)))))

let prop_backends_match_oracles =
  QCheck.Test.make ~name:"build and restrict equal their oracles on both backends" ~count:20
    QCheck.(pair (int_bound 4) (int_bound 100_000))
    (fun (kind, seed) ->
      let m, _ = Lazy.force corpus in
      List.for_all
        (fun (name, db) ->
          let rng = Rng.create seed in
          let result = random_subset rng (Bionav_corpus.Medline.size m) in
          let hierarchy = DB.hierarchy db and total_count = DB.total_count db in
          let attachments = DB.concepts_of_result_ds db result in
          check_build name ~hierarchy ~attachments ~total_count
          &&
          let t = Nav_tree.of_database db result in
          let s = pick_subset rng t kind in
          check_restrict name t s
          &&
          let r = Nav_tree.restrict t s in
          check_restrict (name ^ ", nested") r (pick_subset rng r 2))
        (backends ()))

(* --- scattered citation ids ------------------------------------------ *)

(* Ids at the edges of what the id-indexed scratch takes: 0, word
   boundaries, both sides of its floor, far beyond it, and negative ones,
   which [Docset] admits as sparse sets. *)
let extreme_ids =
  [|
    0; 1; 31; 32; 62; 63; 64; 4095; (1 lsl 20) - 1; 1 lsl 20; (1 lsl 20) + 1; 1 lsl 40;
    max_int - 64; max_int - 1; max_int; -1; -63; -(1 lsl 40); min_int + 1; min_int;
  |]

let prop_scattered_ids =
  QCheck.Test.make ~name:"extreme and negative ids: build and restrict equal the oracles"
    ~count:300
    QCheck.(pair gen_attached_hierarchy (pair (int_bound 4) (int_bound 100_000)))
    (fun ((parents, att), (kind, seed)) ->
      let hierarchy = H.of_parents parents in
      let attachments =
        List.map
          (fun (c, l) ->
            let extreme x = extreme_ids.(x mod Array.length extreme_ids) in
            (c, Docset.of_list (List.map extreme l)))
          att
      in
      let rng = Rng.create seed in
      let t = Nav_tree.build ~hierarchy ~attachments ~total_count in
      check_same "rose" (Oracle.build ~hierarchy ~attachments ~total_count) (Oracle.of_nav t)
      && check_build "build" ~hierarchy ~attachments ~total_count
      && check_restrict "restrict" t (pick_subset rng t kind))

(* Scattered ids take the binary-search fallback, not a table as long as
   the largest id: a build and restriction over ids up to [max_int]
   allocate a few kilobytes, and ids just below the table's 2^20 floor
   at most the floor's 8 MiB. *)
let test_scratch_bounded () =
  let h = hierarchy () in
  let allocated ids =
    let attachments = [ (2, Docset.of_list ids); (4, Docset.of_list [ 0; 1 ]) ] in
    let before = Gc.allocated_bytes () in
    let t = Nav_tree.build ~hierarchy:h ~attachments ~total_count:(fun _ -> 1000) in
    let r = Nav_tree.restrict t (Docset.of_list (0 :: ids)) in
    let bytes = Gc.allocated_bytes () -. before in
    let expected = Oracle.build ~hierarchy:h ~attachments ~total_count:(fun _ -> 1000) in
    Alcotest.(check (option string)) "build" None (Oracle.diff expected (Oracle.of_nav t));
    Alcotest.(check (option string)) "restrict" None
      (Oracle.diff (Oracle.masked_restrict expected (Docset.of_list (0 :: ids))) (Oracle.of_nav r));
    bytes
  in
  let small = 1 lsl 20 in
  List.iter
    (fun ids ->
      let bytes = allocated ids in
      if bytes > 65536. then
        Alcotest.failf "ids up to %d allocated %.0f bytes" (List.fold_left max 0 ids) bytes)
    [ [ 1 lsl 20 ]; [ 5; 1 lsl 40 ]; [ max_int - 1; max_int ]; [ -7; 3 ]; [ min_int; 9 ] ];
  let bytes = allocated [ small - 1 ] in
  if bytes > float_of_int ((8 * small) + 65536) then
    Alcotest.failf "ids below the floor allocated %.0f bytes" bytes

(* A rejected build leaves the rank and citation scratch clear: the next
   build over the same concepts equals the oracle. *)
let test_rejection_leaves_scratch_clear () =
  let h = hierarchy () in
  let total_count _ = 10 in
  List.iter
    (fun attachments ->
      match Nav_tree.build ~hierarchy:h ~attachments ~total_count with
      | _ -> Alcotest.fail "accepted a bad attachment list"
      | exception Invalid_argument _ -> ())
    [
      [ (2, Docset.singleton 1); (4, Docset.singleton 3); (2, Docset.singleton 2) ];
      [ (2, Docset.of_list [ 1; 2 ]); (99, Docset.singleton 1) ];
      [ (4, Docset.of_list (List.init 20 Fun.id)) ];
    ];
  let attachments = [ (4, Docset.singleton 3); (7, Docset.of_list [ 1; 2 ]) ] in
  Alcotest.(check (option string)) "next build" None
    (Oracle.diff
       (Oracle.build ~hierarchy:h ~attachments ~total_count)
       (Oracle.of_nav (Nav_tree.build ~hierarchy:h ~attachments ~total_count)))

let test_restrict_shares_contained_sets () =
  let _, dbs = Lazy.force corpus in
  let db = List.assoc "memory" dbs in
  let t = Nav_tree.of_database db (Docset.of_list (List.init 200 Fun.id)) in
  let node = List.hd (Nav_tree.children t (Nav_tree.root t)) in
  let r = Nav_tree.restrict t (Nav_tree.subtree_results t node) in
  (* Every node under [node] keeps all its citations, so its sets are
     the parent's own values. *)
  let top = Option.get (Nav_tree.node_of_concept r (Nav_tree.concept_id t node)) in
  Alcotest.(check bool) "subtree set shared" true
    (Nav_tree.subtree_results r top == Nav_tree.subtree_results t node);
  Alcotest.(check bool) "results shared" true (Nav_tree.results r top == Nav_tree.results t node)

let () =
  Alcotest.run "nav_tree"
    [
      ( "embedding",
        [
          Alcotest.test_case "shape" `Quick test_maximum_embedding_shape;
          Alcotest.test_case "ancestry preserved" `Quick test_embedding_preserves_ancestry;
          Alcotest.test_case "empty dropped" `Quick test_empty_nodes_dropped;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "root distinct" `Quick test_root_subtree_distinct_is_result_size;
          Alcotest.test_case "height/width" `Quick test_height_width;
          Alcotest.test_case "root-only" `Quick test_root_only_tree;
        ] );
      ( "queries",
        [
          Alcotest.test_case "in_subtree" `Quick test_in_subtree;
          Alcotest.test_case "comp_tree full" `Quick test_comp_tree_of_full;
          Alcotest.test_case "comp_tree partial" `Quick test_comp_tree_of_partial;
          Alcotest.test_case "comp_tree disconnected" `Quick test_comp_tree_of_rejects_disconnected;
          Alcotest.test_case "rejects bad attachments" `Quick test_build_rejects_bad_attachment;
        ] );
      ( "integration",
        [
          Alcotest.test_case "of_database consistency" `Quick test_of_database_consistency;
          Alcotest.test_case "distinct monotone" `Quick test_of_database_distinct_monotone;
          Alcotest.test_case "matches reference build" `Quick test_of_database_matches_reference;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_build_matches_oracle;
          QCheck_alcotest.to_alcotest prop_of_database_matches_oracle;
          QCheck_alcotest.to_alcotest prop_restrict_matches_of_database;
          Alcotest.test_case "restrict shares contained sets" `Quick
            test_restrict_shares_contained_sets;
          QCheck_alcotest.to_alcotest prop_build_matches_sorted_oracle;
          QCheck_alcotest.to_alcotest prop_restrict_matches_masked_oracle;
          QCheck_alcotest.to_alcotest prop_restrict_to_all_is_identity;
          QCheck_alcotest.to_alcotest prop_backends_match_oracles;
        ] );
      ( "scattered",
        [
          QCheck_alcotest.to_alcotest prop_scattered_ids;
          Alcotest.test_case "scratch stays within its floor" `Quick test_scratch_bounded;
          Alcotest.test_case "a rejected build leaves the scratch clear" `Quick
            test_rejection_leaves_scratch_clear;
        ] );
    ]
