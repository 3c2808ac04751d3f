(* Cross-cutting metamorphic properties of the whole pipeline: relations
   that must hold between runs on transformed inputs, independent of any
   single module's unit behaviour. *)

open Bionav_util
open Bionav_core
module H = Bionav_mesh.Hierarchy
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module M = Bionav_corpus.Medline
module DB = Bionav_store.Database
module Codec = Bionav_store.Codec
module Eu = Bionav_search.Eutils

let hierarchy = lazy (S.generate ~params:S.small_params ~seed:101 ())

let medline =
  lazy (G.generate ~params:{ G.small_params with G.n_citations = 400 } ~seed:102 (Lazy.force hierarchy))

let database = lazy (DB.of_medline (Lazy.force medline))

(* Result-set monotonicity: a navigation tree built for a superset of the
   results contains every concept node of the subset's tree, with at least
   the same attached counts. *)
let test_result_monotonicity () =
  let db = Lazy.force database in
  let small = Docset.of_list (List.init 30 (fun i -> i * 3)) in
  let large = Docset.union small (Docset.of_list (List.init 40 (fun i -> 200 + i))) in
  let nav_small = Nav_tree.of_database db small in
  let nav_large = Nav_tree.of_database db large in
  Alcotest.(check bool) "tree grows" true (Nav_tree.size nav_large >= Nav_tree.size nav_small);
  for node = 1 to Nav_tree.size nav_small - 1 do
    let concept = Nav_tree.concept_id nav_small node in
    match Nav_tree.node_of_concept nav_large concept with
    | None -> Alcotest.fail (Printf.sprintf "concept %d vanished in superset tree" concept)
    | Some node' ->
        Alcotest.(check bool) "counts grow" true
          (Nav_tree.result_count nav_large node' >= Nav_tree.result_count nav_small node)
  done

(* Query monotonicity: adding a token can only shrink an AND result. *)
let test_query_and_monotone () =
  let eu = Eu.create (Lazy.force medline) in
  let m = Lazy.force medline in
  let c = M.citation m 0 in
  (* Use two tokens that certainly occur somewhere. *)
  match Bionav_search.Tokenizer.tokens c.Bionav_corpus.Citation.title with
  | t1 :: t2 :: _ ->
      let one = Eu.esearch eu t1 in
      let both = Eu.esearch eu (t1 ^ " " ^ t2) in
      Alcotest.(check bool) "AND shrinks" true (Docset.subset both one)
  | _ -> Alcotest.fail "fixture title too short"

(* Codec idempotence: encode . decode . encode = encode. *)
let test_codec_idempotent () =
  let db = Lazy.force database in
  let once = Codec.encode db in
  let twice = Codec.encode (Codec.decode once) in
  Alcotest.(check bool) "stable bytes" true (String.equal once twice)

(* Codec fuzz: random single-byte corruption either fails cleanly with
   Invalid_argument or yields a decodable database — never any other
   exception. *)
let test_codec_fuzz_corruption () =
  let db = Lazy.force database in
  let bytes = Bytes.of_string (Codec.encode db) in
  let rng = Rng.create 103 in
  for _ = 1 to 200 do
    let pos = Rng.int rng (Bytes.length bytes) in
    let old = Bytes.get bytes pos in
    Bytes.set bytes pos (Char.chr (Rng.int rng 256));
    (try ignore (Codec.decode (Bytes.to_string bytes)) with
    | Invalid_argument _ -> ()
    | e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e));
    Bytes.set bytes pos old
  done

(* Strategy invariance: the static navigation cost to a target depends only
   on the tree, so repeating it is identical; and the total citations shown
   by SHOWRESULTS on the target component equal the target's subtree
   distinct count at that moment. *)
let test_static_cost_reproducible () =
  let db = Lazy.force database in
  let nav = Nav_tree.of_database db (Docset.of_list (List.init 50 (fun i -> i * 2))) in
  let target = Nav_tree.size nav - 1 in
  let a = Simulate.to_target (Navigation.start Navigation.Static nav) ~target in
  let b = Simulate.to_target (Navigation.start Navigation.Static nav) ~target in
  Alcotest.(check int) "identical" a.Simulate.navigation_cost b.Simulate.navigation_cost

(* Permuting citation ids must not change structural costs: rebuild the
   corpus with the same seed, shift all ids by renumbering through nbib
   (which renumbers densely), and compare navigation-tree shape. *)
let test_tree_shape_independent_of_ids () =
  let m = Lazy.force medline in
  let h = Lazy.force hierarchy in
  let renumbered = Bionav_corpus.Nbib.of_string ~hierarchy:h (Bionav_corpus.Nbib.to_string m) in
  let db1 = DB.of_medline m and db2 = DB.of_medline renumbered in
  (* nbib keeps record order, so ids are actually identical here; the deeper
     property is that both databases agree on every count. *)
  for c = 0 to H.size h - 1 do
    Alcotest.(check int) "LT equal" (DB.total_count db1 c) (DB.total_count db2 c)
  done

(* The navigation cost of BioNav to any target is bounded by the total
   number of concepts in the tree plus expansions (sanity upper bound). *)
let test_bionav_cost_bounded () =
  let db = Lazy.force database in
  let nav = Nav_tree.of_database db (Docset.of_list (List.init 60 Fun.id)) in
  let bound = 2 * Nav_tree.size nav in
  List.iter
    (fun target ->
      let o = Simulate.to_target (Navigation.start (Navigation.bionav ()) nav) ~target in
      Alcotest.(check bool) "bounded" true (o.Simulate.navigation_cost <= bound))
    [ 1; Nav_tree.size nav / 2; Nav_tree.size nav - 1 ]

(* --- Docset vs Intset equivalence (the tentpole's correctness anchor):
   over random attachment-style sets, every Docset operation agrees with
   the Intset reference implementation, and fingerprints are stable
   across the ways a set can be built. *)

let gen_attachment =
  (* Mix of sparse and dense-ish ranges so both physical representations
     are exercised. *)
  QCheck.(
    oneof
      [
        list_of_size (Gen.int_range 0 40) (int_range 0 2000);
        list_of_size (Gen.int_range 0 200) (int_range 0 256);
      ])

let agree op_name dop iop (a, b) =
  let da = Docset.of_list a and db_ = Docset.of_list b in
  let ia = Intset.of_list a and ib = Intset.of_list b in
  let got = Docset.elements (dop da db_) and want = Intset.elements (iop ia ib) in
  if got = want then true
  else QCheck.Test.fail_reportf "%s: docset %s / intset %s" op_name
         (String.concat "," (List.map string_of_int got))
         (String.concat "," (List.map string_of_int want))

let qcheck_docset_union =
  QCheck.Test.make ~name:"docset union = intset union" ~count:300
    (QCheck.pair gen_attachment gen_attachment)
    (agree "union" Docset.union Intset.union)

let qcheck_docset_inter =
  QCheck.Test.make ~name:"docset inter = intset inter" ~count:300
    (QCheck.pair gen_attachment gen_attachment)
    (agree "inter" Docset.inter Intset.inter)

let qcheck_docset_diff =
  QCheck.Test.make ~name:"docset diff = intset diff" ~count:300
    (QCheck.pair gen_attachment gen_attachment)
    (agree "diff" Docset.diff Intset.diff)

let qcheck_docset_cardinal =
  QCheck.Test.make ~name:"docset cardinals = intset cardinals" ~count:300
    (QCheck.pair gen_attachment gen_attachment)
    (fun (a, b) ->
      let da = Docset.of_list a and db_ = Docset.of_list b in
      let ia = Intset.of_list a and ib = Intset.of_list b in
      Docset.cardinal da = Intset.cardinal ia
      && Docset.inter_cardinal da db_ = Intset.inter_cardinal ia ib
      && Docset.union_cardinal da db_ = Intset.cardinal (Intset.union ia ib)
      && Docset.subset da db_ = Intset.subset ia ib)

let qcheck_docset_fingerprint_stable =
  QCheck.Test.make ~name:"docset fingerprint stable across constructions" ~count:300
    gen_attachment
    (fun l ->
      (* Same content built from a list, from a sorted array and through
         set algebra — one fingerprint everywhere, and equal content is
         equal however it was built. *)
      let a = Docset.of_list l and b = Docset.of_list (List.rev l) in
      let c = Docset.of_sorted_array_unchecked (Array.of_list (List.sort_uniq compare l)) in
      let rebuilt = Docset.union (Docset.of_list l) (Docset.of_list l) in
      Docset.fingerprint a = Docset.fingerprint b
      && Docset.fingerprint a = Docset.fingerprint c
      && Docset.fingerprint a = Docset.fingerprint rebuilt
      && Docset.equal a b && Docset.equal a c && Docset.equal a rebuilt)

let qcheck_docset_union_many =
  QCheck.Test.make ~name:"docset union_many = intset union_many" ~count:150
    QCheck.(list_of_size (Gen.int_range 0 12) gen_attachment)
    (fun ls ->
      Docset.elements (Docset.union_many (List.map Docset.of_list ls))
      = Intset.elements (Intset.union_many (List.map Intset.of_list ls)))

let () =
  Alcotest.run "metamorphic"
    [
      ( "pipeline",
        [
          Alcotest.test_case "result monotonicity" `Quick test_result_monotonicity;
          Alcotest.test_case "AND monotone" `Quick test_query_and_monotone;
          Alcotest.test_case "codec idempotent" `Quick test_codec_idempotent;
          Alcotest.test_case "codec corruption fuzz" `Quick test_codec_fuzz_corruption;
          Alcotest.test_case "static reproducible" `Quick test_static_cost_reproducible;
          Alcotest.test_case "id-independent counts" `Quick test_tree_shape_independent_of_ids;
          Alcotest.test_case "bionav cost bounded" `Quick test_bionav_cost_bounded;
        ] );
      ( "docset_vs_intset",
        [
          QCheck_alcotest.to_alcotest qcheck_docset_union;
          QCheck_alcotest.to_alcotest qcheck_docset_inter;
          QCheck_alcotest.to_alcotest qcheck_docset_diff;
          QCheck_alcotest.to_alcotest qcheck_docset_cardinal;
          QCheck_alcotest.to_alcotest qcheck_docset_fingerprint_stable;
          QCheck_alcotest.to_alcotest qcheck_docset_union_many;
        ] );
    ]
