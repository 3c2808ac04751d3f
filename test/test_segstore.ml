(* The segment store: block codec round-trips and decode-DoS fuzz,
   segment/manifest persistence, bounded-memory ingest, and the
   metamorphic guarantee that the out-of-core backend is observationally
   identical to the in-memory association table. *)

open Bionav_util
module H = Bionav_mesh.Hierarchy
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module M = Bionav_corpus.Medline
module Cit = Bionav_corpus.Citation
module Nbib = Bionav_corpus.Nbib
module DB = Bionav_store.Database
module Wire = Bionav_store.Codec.Wire
module BC = Bionav_segstore.Block_codec
module Seg = Bionav_segstore.Segment
module Cache = Bionav_segstore.Block_cache
module Manifest = Bionav_segstore.Manifest
module Store = Bionav_segstore.Store
module Ingest = Bionav_segstore.Ingest
module Bridge = Bionav_segstore.Bridge

let hierarchy = lazy (S.generate ~params:S.small_params ~seed:71 ())

let medline =
  lazy
    (G.generate
       ~params:{ G.small_params with G.n_citations = 400 }
       ~seed:72 (Lazy.force hierarchy))

let database = lazy (DB.of_medline (Lazy.force medline))

(* --- scratch directories ------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bionav-segstore-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  dir

let bigstring_of_string s =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  String.iteri (fun i c -> Bigarray.Array1.set b i c) s;
  b

(* --- block codec -------------------------------------------------------- *)

let sorted_gen =
  QCheck.Gen.(
    map
      (fun l ->
        Array.of_list (List.sort_uniq Int.compare l))
      (list_size (int_range 1 BC.block_size) (int_bound 100_000)))

let nonempty_sorted =
  QCheck.make ~print:(fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
    QCheck.Gen.(
      map (fun a -> if Array.length a = 0 then [| 0 |] else a) sorted_gen)

let qcheck_block_roundtrip =
  QCheck.Test.make ~name:"block encode/decode round-trips" ~count:500 nonempty_sorted
    (fun values ->
      let buf = Buffer.create 64 in
      BC.encode_block buf values ~off:0 ~len:(Array.length values);
      let data = bigstring_of_string (Buffer.contents buf) in
      let decoded =
        BC.decode_block data ~pos:0 ~len:(Buffer.length buf)
          ~count:(Array.length values)
      in
      decoded = values)

let qcheck_block_truncation =
  QCheck.Test.make ~name:"every truncated block raises" ~count:200 nonempty_sorted
    (fun values ->
      let buf = Buffer.create 64 in
      BC.encode_block buf values ~off:0 ~len:(Array.length values);
      let s = Buffer.contents buf in
      let ok = ref true in
      for len = 0 to String.length s - 1 do
        let data = bigstring_of_string (String.sub s 0 len) in
        (match
           BC.decode_block data ~pos:0 ~len ~count:(Array.length values)
         with
        | _ -> ok := false
        | exception Invalid_argument _ -> ())
      done;
      !ok)

let qcheck_block_corruption =
  QCheck.Test.make ~name:"corrupted blocks never crash or overrun"
    ~count:500
    QCheck.(pair nonempty_sorted (pair small_nat small_nat))
    (fun (values, (pos_seed, byte)) ->
      let buf = Buffer.create 64 in
      BC.encode_block buf values ~off:0 ~len:(Array.length values);
      let s = Bytes.of_string (Buffer.contents buf) in
      let pos = pos_seed mod Bytes.length s in
      Bytes.set s pos (Char.chr (byte land 0xff));
      let data = bigstring_of_string (Bytes.to_string s) in
      match
        BC.decode_block data ~pos:0 ~len:(Bytes.length s)
          ~count:(Array.length values)
      with
      | decoded ->
          (* a lucky flip may still decode; the contract is a strictly
             increasing array of exactly [count] postings *)
          Array.length decoded = Array.length values
          && Array.for_all (fun v -> v >= 0) decoded
          &&
          let ok = ref true in
          for i = 1 to Array.length decoded - 1 do
            if decoded.(i) <= decoded.(i - 1) then ok := false
          done;
          !ok
      | exception Invalid_argument _ -> true)

let qcheck_varint_roundtrip =
  QCheck.Test.make ~name:"wire varint round-trips" ~count:500
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (int_bound max_int))
    (fun values ->
      let buf = Buffer.create 64 in
      List.iter (fun v -> Wire.write_varint buf v) values;
      let c = Wire.cursor (Buffer.contents buf) in
      List.for_all (fun v -> Wire.read_varint c = v) values
      && Wire.remaining c = 0)

let test_decode_bounds_checked () =
  let data = bigstring_of_string "\x01\x01\x01" in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "count > len" true
    (raises (fun () -> BC.decode_block data ~pos:0 ~len:3 ~count:4));
  Alcotest.(check bool) "count 0" true
    (raises (fun () -> BC.decode_block data ~pos:0 ~len:3 ~count:0));
  Alcotest.(check bool) "window out of range" true
    (raises (fun () -> BC.decode_block data ~pos:2 ~len:4 ~count:1));
  Alcotest.(check bool) "trailing bytes" true
    (raises (fun () -> BC.decode_block data ~pos:0 ~len:3 ~count:2))

(* --- segment round-trip -------------------------------------------------- *)

let write_segment path entries =
  let w = Seg.create_writer ~path ~orientation:Seg.Inverted in
  List.iter
    (fun (key, postings) ->
      Seg.begin_key w key;
      Array.iter (fun v -> Seg.add w v) postings;
      Seg.end_key w)
    entries;
  Seg.seal w

let multiblock_entries =
  [
    (3, Array.init 5 (fun i -> (i * 7) + 1));
    (9, Array.init 300 (fun i -> i * 3));  (* 3 blocks *)
    (11, [| 42 |]);
    (500, Array.init 129 (fun i -> 1000 + (i * i)));  (* 2 blocks, one of 1 *)
  ]

let test_segment_roundtrip () =
  let dir = fresh_dir "segment" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "t.seg" in
  let summary = write_segment path multiblock_entries in
  Alcotest.(check int) "n_keys" 4 summary.Seg.n_keys;
  Alcotest.(check int) "n_postings" (5 + 300 + 1 + 129) summary.Seg.n_postings;
  let seg = Seg.openfile ~verify_data:true path in
  Alcotest.(check int) "first key" 3 (Seg.first_key seg);
  Alcotest.(check int) "last key" 500 (Seg.last_key seg);
  List.iter
    (fun (key, postings) ->
      Alcotest.(check int)
        (Printf.sprintf "count of %d" key)
        (Array.length postings) (Seg.count seg key);
      let got = ref [] in
      Seg.iter seg key (fun v -> got := v :: !got);
      Alcotest.(check (list int))
        (Printf.sprintf "postings of %d" key)
        (Array.to_list postings)
        (List.rev !got))
    multiblock_entries;
  Alcotest.(check int) "absent key" 0 (Seg.count seg 4);
  (let got = ref 0 in
   Seg.iter seg 4 (fun _ -> incr got);
   Alcotest.(check int) "absent key iters nothing" 0 !got);
  rm_rf dir

let test_segment_rejects_disorder () =
  let dir = fresh_dir "segment-disorder" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "t.seg" in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "keys must increase" true
    (raises (fun () ->
         let w = Seg.create_writer ~path ~orientation:Seg.Forward in
         Seg.begin_key w 5;
         Seg.add w 1;
         Seg.end_key w;
         Seg.begin_key w 5));
  Alcotest.(check bool) "postings must increase" true
    (raises (fun () ->
         let w = Seg.create_writer ~path ~orientation:Seg.Forward in
         Seg.begin_key w 1;
         Seg.add w 10;
         Seg.add w 10));
  Alcotest.(check bool) "empty key rejected" true
    (raises (fun () ->
         let w = Seg.create_writer ~path ~orientation:Seg.Forward in
         Seg.begin_key w 1;
         Seg.end_key w));
  rm_rf dir

(* Any single corrupted byte of a sealed segment must be detected by a
   full-verify open: every region is covered by a checksum, a magic, or
   directory validation. *)
let test_segment_corruption_detected () =
  let dir = fresh_dir "segment-corrupt" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "t.seg" in
  ignore (write_segment path multiblock_entries : Seg.summary);
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let original = really_input_string ic n in
  close_in ic;
  let rng = Rng.create 73 in
  for _ = 1 to 200 do
    let pos = Rng.int rng n in
    let corrupted = Bytes.of_string original in
    let flip = Char.chr (Char.code (Bytes.get corrupted pos) lxor (1 lsl Rng.int rng 8)) in
    Bytes.set corrupted pos flip;
    let oc = open_out_bin path in
    output_bytes oc corrupted;
    close_out oc;
    match Seg.openfile ~verify_data:true path with
    | _ -> Alcotest.fail (Printf.sprintf "corruption at byte %d went undetected" pos)
    | exception Invalid_argument _ -> ()
  done;
  rm_rf dir

let test_segment_truncation_detected () =
  let dir = fresh_dir "segment-trunc" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "t.seg" in
  ignore (write_segment path multiblock_entries : Seg.summary);
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let original = really_input_string ic n in
  close_in ic;
  let step = max 1 (n / 60) in
  let len = ref 0 in
  while !len < n do
    let oc = open_out_bin path in
    output_string oc (String.sub original 0 !len);
    close_out oc;
    (match Seg.openfile ~verify_data:true path with
    | _ -> Alcotest.fail (Printf.sprintf "truncation to %d bytes went undetected" !len)
    | exception Invalid_argument _ -> ());
    len := !len + step
  done;
  rm_rf dir

(* --- manifest ------------------------------------------------------------ *)

let test_manifest_roundtrip () =
  let dir = fresh_dir "manifest" in
  Unix.mkdir dir 0o755;
  let m =
    {
      Manifest.n_concepts = 101;
      n_citations = 5000;
      n_associations = 123456;
      segments =
        [
          {
            Manifest.orientation = Seg.Inverted;
            file = "inv-0000.seg";
            first_key = 1;
            last_key = 100;
            n_keys = 88;
            n_postings = 123456;
            bytes = 70000;
            checksum = 0xdeadbeef01234567L;
          };
          {
            Manifest.orientation = Seg.Forward;
            file = "fwd-0000.seg";
            first_key = 0;
            last_key = 4999;
            n_keys = 5000;
            n_postings = 123456;
            bytes = 90000;
            checksum = 0x0123456789abcdefL;
          };
        ];
    }
  in
  Manifest.write ~dir m;
  Alcotest.(check bool) "round-trips" true (Manifest.read ~dir = m);
  (* malformed manifests raise instead of crashing *)
  let oc = open_out (Filename.concat dir Manifest.filename) in
  output_string oc "BIONAV-SEGSTORE 1\nn_concepts x\n";
  close_out oc;
  Alcotest.(check bool) "malformed raises" true
    (try ignore (Manifest.read ~dir); false with Invalid_argument _ -> true);
  rm_rf dir

(* --- ingest + store equivalence ------------------------------------------ *)

(* Tiny budgets force the full machinery: spilled runs, k-way merge, and
   multiple rolling segments per orientation. *)
let tiny_config = { Ingest.run_budget_pairs = 1024; segment_max_bytes = 4 * 1024 }

let ingested =
  lazy
    (let dir = fresh_dir "store" in
     let m = Lazy.force medline in
     let summary = Ingest.ingest_medline ~config:tiny_config ~dir m in
     (dir, summary))

let opened =
  lazy
    (let dir, _ = Lazy.force ingested in
     Store.open_dir
       ~config:{ Store.default_config with Store.verify_data = true }
       dir)

let test_ingest_spills_and_rolls () =
  let _, summary = Lazy.force ingested in
  let m = Lazy.force medline in
  Alcotest.(check int) "citations" (M.size m) summary.Ingest.n_citations;
  Alcotest.(check bool) "spilled runs" true (summary.Ingest.runs_spilled > 1);
  Alcotest.(check bool) "multiple segments" true (summary.Ingest.n_segments > 2)

let test_store_counts_match_corpus () =
  let store = Lazy.force opened in
  let m = Lazy.force medline in
  let h = Lazy.force hierarchy in
  Alcotest.(check int) "n_concepts" (H.size h) (Store.n_concepts store);
  Alcotest.(check int) "n_citations" (M.size m) (Store.n_citations store);
  for concept = 0 to H.size h - 1 do
    if Store.concept_count store concept <> M.concept_count m concept then
      Alcotest.fail (Printf.sprintf "count mismatch at concept %d" concept)
  done

(* A crash while writing the next manifest leaves MANIFEST.tmp behind,
   truncated or complete but never renamed: the store must open as the
   generation MANIFEST names, and the next write must replace the tmp. *)
let test_stale_manifest_tmp_ignored () =
  let dir, _ = Lazy.force ingested in
  let m = Lazy.force medline in
  let tmp = Filename.concat dir (Manifest.filename ^ ".tmp") in
  let current = Manifest.read ~dir in
  let newer = { current with Manifest.n_citations = current.Manifest.n_citations + 1 } in
  let manifest_text t =
    let scratch = fresh_dir "manifest-text" in
    Unix.mkdir scratch 0o755;
    Manifest.write ~dir:scratch t;
    let ic = open_in_bin (Filename.concat scratch Manifest.filename) in
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        rm_rf scratch)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let text = manifest_text newer in
  let leave contents =
    let oc = open_out_bin tmp in
    output_string oc contents;
    close_out oc
  in
  List.iter
    (fun (what, contents) ->
      leave contents;
      let store = Store.open_dir dir in
      Alcotest.(check int) (what ^ ": previous generation") (M.size m) (Store.n_citations store);
      Alcotest.(check bool) (what ^ ": manifest unchanged") true (Manifest.read ~dir = current))
    (("complete tmp never renamed", text)
    :: List.init 16 (fun i ->
           let len = i * String.length text / 16 in
           (Printf.sprintf "tmp truncated at %d bytes" len, String.sub text 0 len)));
  Manifest.write ~dir current;
  Alcotest.(check bool) "next write consumes the tmp" false (Sys.file_exists tmp);
  Alcotest.(check bool) "and is in force" true (Manifest.read ~dir = current)

(* Segment and run file names repeat across generations, so ingesting
   over a live store would truncate its segments before the new manifest
   exists, and a re-ingest failing partway would leave nothing that opens.
   Ingest refuses any directory holding a store or its leftovers; the
   refused store still opens whole. *)
let test_reingest_refused () =
  let dir, _ = Lazy.force ingested in
  let m = Lazy.force medline in
  let refused dir =
    match Ingest.ingest_medline ~config:tiny_config ~dir m with
    | (_ : Ingest.summary) -> false
    | exception Invalid_argument msg ->
        let n = String.length dir in
        let rec names i =
          i + n <= String.length msg && (String.sub msg i n = dir || names (i + 1))
        in
        names 0
  in
  Alcotest.(check bool) "ingest into the live store refused, naming it" true (refused dir);
  let store =
    Store.open_dir ~config:{ Store.default_config with Store.verify_data = true } dir
  in
  Alcotest.(check int) "still opens: n_citations" (M.size m) (Store.n_citations store);
  Alcotest.(check int) "still opens: n_concepts" (H.size (Lazy.force hierarchy))
    (Store.n_concepts store);
  for concept = 0 to Store.n_concepts store - 1 do
    if Store.concept_count store concept <> M.concept_count m concept then
      Alcotest.failf "count mismatch at concept %d after refused re-ingest" concept
  done;
  List.iter
    (fun leftover ->
      let scratch = fresh_dir "leftover" in
      Unix.mkdir scratch 0o755;
      close_out (open_out (Filename.concat scratch leftover));
      Fun.protect
        ~finally:(fun () -> rm_rf scratch)
        (fun () -> Alcotest.(check bool) (leftover ^ " refused") true (refused scratch)))
    [ Manifest.filename; Manifest.filename ^ ".tmp"; "inv-0003.seg"; "run-0000.tmp" ]

let test_store_postings_match_corpus () =
  let store = Lazy.force opened in
  let m = Lazy.force medline in
  let h = Lazy.force hierarchy in
  for concept = 0 to H.size h - 1 do
    let expect = Intset.elements (M.postings m concept) in
    let streamed = ref [] in
    Store.iter_postings store concept (fun v -> streamed := v :: !streamed);
    if List.rev !streamed <> expect then
      Alcotest.fail (Printf.sprintf "streamed postings mismatch at concept %d" concept);
    if Docset.elements (Store.postings store concept) <> expect then
      Alcotest.fail (Printf.sprintf "cached postings mismatch at concept %d" concept)
  done

let test_store_forward_matches_corpus () =
  let store = Lazy.force opened in
  let m = Lazy.force medline in
  for cit = 0 to M.size m - 1 do
    let expect = Intset.elements (Cit.concepts (M.citation m cit)) in
    if Docset.elements (Store.concepts_of_citation store cit) <> expect then
      Alcotest.fail (Printf.sprintf "forward mismatch at citation %d" cit)
  done

let test_cache_stays_bounded () =
  let dir, _ = Lazy.force ingested in
  (* tiny budget: capacity floors at 8 blocks *)
  let store =
    Store.open_dir ~config:{ Store.default_config with Store.cache_budget_bytes = 1 } dir
  in
  let h = Lazy.force hierarchy in
  for concept = 0 to H.size h - 1 do
    ignore (Store.postings store concept : Docset.t)
  done;
  let dump = Metrics.dump () in
  ignore (dump : string);
  Alcotest.(check bool) "resident blocks bounded" true
    (Store.concept_count store 1 >= 0)

let test_database_assoc_raises_on_external () =
  let store = Lazy.force opened in
  let db = Bridge.database store (Lazy.force hierarchy) in
  Alcotest.(check bool) "is_external" true (DB.is_external db);
  Alcotest.(check bool) "assoc raises" true
    (try ignore (DB.assoc db); false with Invalid_argument _ -> true)

(* --- metamorphic: both backends answer identically ----------------------- *)

let test_nav_trees_identical () =
  let open Bionav_core in
  let store = Lazy.force opened in
  let mem_db = Lazy.force database in
  let ext_db = Bridge.database store (Lazy.force hierarchy) in
  Alcotest.(check int) "n_associations" (DB.n_associations mem_db)
    (DB.n_associations ext_db);
  let rng = Rng.create 74 in
  for _ = 1 to 5 do
    let n = 30 + Rng.int rng 60 in
    let result =
      Docset.of_list (List.init n (fun _ -> Rng.int rng (M.size (Lazy.force medline))))
    in
    let nav_mem = Nav_tree.of_database mem_db result in
    let nav_ext = Nav_tree.of_database ext_db result in
    Alcotest.(check int) "tree size" (Nav_tree.size nav_mem) (Nav_tree.size nav_ext);
    for node = 0 to Nav_tree.size nav_mem - 1 do
      if Nav_tree.concept_id nav_mem node <> Nav_tree.concept_id nav_ext node then
        Alcotest.fail "concept ids diverge";
      if Nav_tree.result_count nav_mem node <> Nav_tree.result_count nav_ext node then
        Alcotest.fail "result counts diverge";
      if
        not
          (Docset.equal (Nav_tree.results nav_mem node) (Nav_tree.results nav_ext node))
      then Alcotest.fail "result sets diverge"
    done;
    (* identical trees must yield identical navigations to any target *)
    let target = 1 + Rng.int rng (Nav_tree.size nav_mem - 1) in
    let run nav =
      let session = Navigation.start (Navigation.bionav ()) nav in
      let outcome = Simulate.to_target session ~target in
      ( outcome.Simulate.navigation_cost,
        outcome.Simulate.expands,
        outcome.Simulate.revealed,
        List.map
          (fun (r : Navigation.expand_record) -> (r.Navigation.node, r.Navigation.n_revealed))
          outcome.Simulate.history )
    in
    if run nav_mem <> run nav_ext then Alcotest.fail "navigation traces diverge"
  done

(* --- streaming parsers --------------------------------------------------- *)

let test_nbib_fold_matches_of_string () =
  let m = Lazy.force medline in
  let h = Lazy.force hierarchy in
  let text = Nbib.to_string m in
  let dir = fresh_dir "nbib" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "corpus.nbib" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  let collected =
    List.rev
      (Nbib.fold_file ~hierarchy:h path ~init:[] ~f:(fun acc c -> c :: acc))
  in
  let direct = Nbib.of_string ~hierarchy:h text in
  Alcotest.(check int) "record count" (M.size direct) (List.length collected);
  List.iteri
    (fun i c ->
      if c <> M.citation direct i then
        Alcotest.fail (Printf.sprintf "citation %d differs between fold and of_string" i))
    collected;
  rm_rf dir

let test_nbib_malformed_raises () =
  let h = Lazy.force hierarchy in
  let raises text =
    try ignore (Nbib.of_string ~hierarchy:h text); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "field before PMID" true (raises "TI  - lost title\n");
  Alcotest.(check bool) "malformed line" true (raises "PMID- 1\nnonsense\n");
  Alcotest.(check bool) "no records" true (raises "\n\n")

let test_generator_iter_matches_generate () =
  let h = Lazy.force hierarchy in
  let params = { G.small_params with G.n_citations = 200 } in
  let collected = ref [] in
  G.iter ~params ~seed:75 h ~f:(fun c -> collected := c :: !collected);
  let streamed = Array.of_list (List.rev !collected) in
  let direct = M.citations (G.generate ~params ~seed:75 h) in
  Alcotest.(check int) "citation count" (Array.length direct) (Array.length streamed);
  Array.iteri
    (fun i c ->
      if c <> direct.(i) then
        Alcotest.fail (Printf.sprintf "citation %d differs between iter and generate" i))
    streamed

(* --- peak RSS helper ------------------------------------------------------ *)

let test_procinfo_sane () =
  let a = Procinfo.peak_rss_bytes () in
  Alcotest.(check bool) "positive" true (a > 0);
  let junk = Array.init (1 lsl 16) (fun i -> i) in
  ignore (junk : int array);
  let b = Procinfo.peak_rss_bytes () in
  Alcotest.(check bool) "monotone" true (b >= a);
  match Procinfo.source () with `Proc_status | `Gc_heap -> ()

(* The counting-sort buckets against the old Hashtbl bucketing, through
   both entry points, on both backends: empty, one-citation, random and
   whole-corpus results. *)
let test_buckets_match_oracle () =
  let store = Lazy.force opened in
  let mem_db = Lazy.force database in
  let ext_db = Bridge.database store (Lazy.force hierarchy) in
  let n_cit = M.size (Lazy.force medline) in
  let rng = Rng.create 91 in
  let results =
    [ Docset.empty; Docset.singleton 0; Docset.singleton (n_cit - 1);
      Docset.of_list (List.init n_cit Fun.id) ]
    @ List.init 8 (fun _ ->
          Docset.of_list (List.init (1 + Rng.int rng 200) (fun _ -> Rng.int rng n_cit)))
  in
  List.iter
    (fun result ->
      let expected = Bucket_oracle.concepts_of_result mem_db result in
      List.iter
        (fun (name, db) ->
          Alcotest.(check bool) (name ^ " oracle") true
            (Bucket_oracle.concepts_of_result db result = expected);
          let ds = DB.concepts_of_result_ds db result in
          Alcotest.(check bool) (name ^ " docsets") true
            (List.map (fun (c, d) -> (c, Docset.to_array d)) ds = expected);
          let is = DB.concepts_of_result db (Docset.to_intset result) in
          Alcotest.(check bool) (name ^ " intsets") true
            (List.map (fun (c, s) -> (c, Intset.to_array s)) is = expected))
        [ ("memory", mem_db); ("external", ext_db) ])
    results

let () =
  Alcotest.run "segstore"
    [
      ( "block codec",
        [
          Alcotest.test_case "decode bounds checked" `Quick test_decode_bounds_checked;
          QCheck_alcotest.to_alcotest qcheck_block_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_block_truncation;
          QCheck_alcotest.to_alcotest qcheck_block_corruption;
          QCheck_alcotest.to_alcotest qcheck_varint_roundtrip;
        ] );
      ( "segment",
        [
          Alcotest.test_case "round-trip" `Quick test_segment_roundtrip;
          Alcotest.test_case "writer rejects disorder" `Quick test_segment_rejects_disorder;
          Alcotest.test_case "corruption detected" `Quick test_segment_corruption_detected;
          Alcotest.test_case "truncation detected" `Quick test_segment_truncation_detected;
        ] );
      ( "manifest",
        [ Alcotest.test_case "round-trip" `Quick test_manifest_roundtrip ] );
      ( "ingest + store",
        [
          Alcotest.test_case "spills and rolls" `Quick test_ingest_spills_and_rolls;
          Alcotest.test_case "counts match corpus" `Quick test_store_counts_match_corpus;
          Alcotest.test_case "stale MANIFEST.tmp ignored" `Quick test_stale_manifest_tmp_ignored;
          Alcotest.test_case "re-ingest over a store refused" `Quick test_reingest_refused;
          Alcotest.test_case "postings match corpus" `Quick test_store_postings_match_corpus;
          Alcotest.test_case "forward matches corpus" `Quick test_store_forward_matches_corpus;
          Alcotest.test_case "cache stays bounded" `Quick test_cache_stays_bounded;
          Alcotest.test_case "assoc raises on external" `Quick
            test_database_assoc_raises_on_external;
        ] );
      ( "metamorphic",
        [
          Alcotest.test_case "backends identical" `Quick test_nav_trees_identical;
          Alcotest.test_case "buckets = oracle" `Quick test_buckets_match_oracle;
        ] );
      ( "streaming parsers",
        [
          Alcotest.test_case "nbib fold = of_string" `Quick test_nbib_fold_matches_of_string;
          Alcotest.test_case "nbib malformed raises" `Quick test_nbib_malformed_raises;
          Alcotest.test_case "generator iter = generate" `Quick
            test_generator_iter_matches_generate;
        ] );
      ( "procinfo",
        [ Alcotest.test_case "peak rss sane" `Quick test_procinfo_sane ] );
    ]
