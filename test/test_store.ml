open Bionav_util
module H = Bionav_mesh.Hierarchy
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module M = Bionav_corpus.Medline
module Cit = Bionav_corpus.Citation
module AT = Bionav_store.Assoc_table
module DB = Bionav_store.Database
module Codec = Bionav_store.Codec

let hierarchy = lazy (S.generate ~params:S.small_params ~seed:41 ())

let medline =
  lazy (G.generate ~params:{ G.small_params with G.n_citations = 300 } ~seed:42 (Lazy.force hierarchy))

let database = lazy (DB.of_medline (Lazy.force medline))

(* --- Assoc_table --- *)

let small_table () =
  let postings =
    [| Intset.empty; Intset.of_list [ 0; 2 ]; Intset.of_list [ 1 ]; Intset.of_list [ 0; 1; 2 ] |]
  in
  AT.of_postings ~n_citations:3 postings

let test_table_shapes () =
  let t = small_table () in
  Alcotest.(check int) "concepts" 4 (AT.n_concepts t);
  Alcotest.(check int) "citations" 3 (AT.n_citations t);
  Alcotest.(check int) "associations" 6 (AT.n_associations t)

let test_table_orientations_agree () =
  let t = small_table () in
  Alcotest.(check (list int)) "citation 0" [ 1; 3 ] (Intset.elements (AT.concepts_of_citation t 0));
  Alcotest.(check (list int)) "citation 1" [ 2; 3 ] (Intset.elements (AT.concepts_of_citation t 1));
  Alcotest.(check (list int)) "citation 2" [ 1; 3 ] (Intset.elements (AT.concepts_of_citation t 2));
  Alcotest.(check (list int)) "concept 1" [ 0; 2 ] (Intset.elements (AT.citations_of_concept t 1))

let test_table_rejects_out_of_range () =
  Alcotest.(check bool) "bad citation id" true
    (try
       ignore (AT.of_postings ~n_citations:2 [| Intset.of_list [ 5 ] |]);
       false
     with Invalid_argument _ -> true)

let test_fold_concepts_skips_empty () =
  let t = small_table () in
  let visited = AT.fold_concepts t ~init:[] ~f:(fun acc c _ -> c :: acc) in
  Alcotest.(check (list int)) "non-empty concepts" [ 3; 2; 1 ] visited

let test_orientations_agree_bulk () =
  let db = Lazy.force database in
  let t = DB.assoc db in
  (* Every (concept, citation) pair visible one way is visible the other. *)
  for concept = 0 to AT.n_concepts t - 1 do
    Intset.iter
      (fun cit ->
        Alcotest.(check bool) "reverse link" true (Intset.mem concept (AT.concepts_of_citation t cit)))
      (AT.citations_of_concept t concept)
  done

(* --- Database --- *)

let test_total_counts_match_corpus () =
  let db = Lazy.force database in
  let m = Lazy.force medline in
  for concept = 0 to H.size (DB.hierarchy db) - 1 do
    Alcotest.(check int) "LT matches corpus" (M.concept_count m concept) (DB.total_count db concept)
  done

let test_concepts_of_result_correct () =
  let db = Lazy.force database in
  let m = Lazy.force medline in
  let result = Intset.of_list [ 0; 5; 17; 100 ] in
  let by_concept = DB.concepts_of_result db result in
  (* Model: recompute naively from citations. *)
  let expected = Hashtbl.create 64 in
  Intset.iter
    (fun cit ->
      Intset.iter
        (fun concept ->
          Hashtbl.replace expected concept
            (Intset.add cit (Option.value ~default:Intset.empty (Hashtbl.find_opt expected concept))))
        (Cit.concepts (M.citation m cit)))
    result;
  Alcotest.(check int) "concept count" (Hashtbl.length expected) (List.length by_concept);
  List.iter
    (fun (concept, cits) ->
      match Hashtbl.find_opt expected concept with
      | None -> Alcotest.fail (Printf.sprintf "unexpected concept %d" concept)
      | Some s ->
          Alcotest.(check bool) (Printf.sprintf "citations of %d" concept) true (Intset.equal s cits))
    by_concept

let test_concepts_of_result_sorted () =
  let db = Lazy.force database in
  let result = Intset.of_list [ 1; 2; 3 ] in
  let concepts = List.map fst (DB.concepts_of_result db result) in
  Alcotest.(check (list int)) "ascending" (List.sort Int.compare concepts) concepts

let test_make_rejects_mismatch () =
  let db = Lazy.force database in
  let small = AT.of_postings ~n_citations:1 [| Intset.empty |] in
  Alcotest.(check bool) "size mismatch" true
    (try
       ignore (DB.make ~hierarchy:(DB.hierarchy db) ~assoc:small);
       false
     with Invalid_argument _ -> true)

(* --- Codec --- *)

let databases_equal a b =
  H.size (DB.hierarchy a) = H.size (DB.hierarchy b)
  && DB.n_citations a = DB.n_citations b
  &&
  let ha = DB.hierarchy a in
  let ok = ref true in
  for i = 0 to H.size ha - 1 do
    if H.label ha i <> H.label (DB.hierarchy b) i then ok := false;
    if DB.total_count a i <> DB.total_count b i then ok := false;
    if
      not
        (Intset.equal
           (AT.citations_of_concept (DB.assoc a) i)
           (AT.citations_of_concept (DB.assoc b) i))
    then ok := false
  done;
  !ok

let test_codec_roundtrip () =
  let db = Lazy.force database in
  let db' = Codec.decode (Codec.encode db) in
  Alcotest.(check bool) "roundtrip" true (databases_equal db db')

let test_codec_save_load () =
  let db = Lazy.force database in
  let path = Filename.temp_file "bionav_db" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.save db path;
      Alcotest.(check bool) "disk roundtrip" true (databases_equal db (Codec.load path)))

let decode_fails data =
  try
    ignore (Codec.decode data);
    false
  with Invalid_argument _ -> true

let test_codec_rejects_bad_magic () =
  Alcotest.(check bool) "bad magic" true (decode_fails "NOTBIONAV000000000")

let test_codec_rejects_truncation () =
  let db = Lazy.force database in
  let full = Codec.encode db in
  Alcotest.(check bool) "truncated" true
    (decode_fails (String.sub full 0 (String.length full / 2)))

let test_codec_rejects_trailing_garbage () =
  let db = Lazy.force database in
  Alcotest.(check bool) "trailing" true (decode_fails (Codec.encode db ^ "x"))

(* --- Snapshot versions --- *)

module Snapshot = Bionav_store.Snapshot

let test_snapshot_unknown_version_message () =
  let db = Lazy.force database in
  let entry = { Snapshot.query = "q"; results = Intset.of_list [ 1 ]; root_cut = [] } in
  let data = Bytes.of_string (Snapshot.encode ~db [ entry ]) in
  Bytes.set data 10 '\x63';  (* version byte -> 99 *)
  match Snapshot.decode ~db (Bytes.to_string data) with
  | _ -> Alcotest.fail "expected rejection of version 99"
  | exception Invalid_argument msg ->
      let mentions needle =
        let nl = String.length needle and ml = String.length msg in
        let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "names the bad version" true (mentions "99");
      Alcotest.(check bool) "names the supported version" true (mentions "supported: 2")

let () =
  Alcotest.run "store"
    [
      ( "assoc_table",
        [
          Alcotest.test_case "shapes" `Quick test_table_shapes;
          Alcotest.test_case "orientations agree" `Quick test_table_orientations_agree;
          Alcotest.test_case "rejects out of range" `Quick test_table_rejects_out_of_range;
          Alcotest.test_case "fold skips empty" `Quick test_fold_concepts_skips_empty;
          Alcotest.test_case "orientations agree (bulk)" `Quick test_orientations_agree_bulk;
        ] );
      ( "database",
        [
          Alcotest.test_case "total counts" `Quick test_total_counts_match_corpus;
          Alcotest.test_case "concepts_of_result" `Quick test_concepts_of_result_correct;
          Alcotest.test_case "concepts_of_result sorted" `Quick test_concepts_of_result_sorted;
          Alcotest.test_case "make rejects mismatch" `Quick test_make_rejects_mismatch;
        ] );
      ( "snapshot_compat",
        [
          Alcotest.test_case "unknown version error" `Quick test_snapshot_unknown_version_message;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "save/load" `Quick test_codec_save_load;
          Alcotest.test_case "rejects bad magic" `Quick test_codec_rejects_bad_magic;
          Alcotest.test_case "rejects truncation" `Quick test_codec_rejects_truncation;
          Alcotest.test_case "rejects trailing garbage" `Quick test_codec_rejects_trailing_garbage;
        ] );
    ]
