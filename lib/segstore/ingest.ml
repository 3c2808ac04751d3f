open Bionav_util
module Wire = Bionav_store.Codec.Wire

type config = { run_budget_pairs : int; segment_max_bytes : int }

let default_config =
  { run_budget_pairs = 1 lsl 20; segment_max_bytes = 64 * 1024 * 1024 }

let citations_total = Metrics.counter "bionav_segstore_ingest_citations_total"
let runs_spilled_total = Metrics.counter "bionav_segstore_ingest_runs_spilled_total"

(* Pairs are packed (concept lsl 31) lor citation, so sorting packed words
   is (concept, citation) lexicographic order — exactly inverted-segment
   write order. Both components must fit 31 bits. *)
let max_component = 1 lsl 31

let pack ~concept ~cit = (concept lsl 31) lor cit
let pair_concept p = p lsr 31
let pair_cit p = p land (max_component - 1)

(* --- rolling segment writers ------------------------------------------- *)

type rolling = {
  r_dir : string;
  prefix : string;
  r_orientation : Segment.orientation;
  max_bytes : int;
  mutable writer : Segment.writer option;
  mutable next_idx : int;
  mutable summaries : Segment.summary list;  (* reversed *)
}

let rolling ~dir ~prefix ~orientation ~max_bytes =
  { r_dir = dir; prefix; r_orientation = orientation; max_bytes;
    writer = None; next_idx = 0; summaries = [] }

let rolling_writer r =
  match r.writer with
  | Some w -> w
  | None ->
      let path =
        Filename.concat r.r_dir (Printf.sprintf "%s-%04d.seg" r.prefix r.next_idx)
      in
      r.next_idx <- r.next_idx + 1;
      let w = Segment.create_writer ~path ~orientation:r.r_orientation in
      r.writer <- Some w;
      w

let rolling_begin_key r key = Segment.begin_key (rolling_writer r) key
let rolling_add r v = Segment.add (rolling_writer r) v

(* Cut only at key boundaries, so a key's blocks never span segments. *)
let rolling_end_key r =
  match r.writer with
  | None -> invalid_arg "Segstore.Ingest: no open key"
  | Some w ->
      Segment.end_key w;
      if Segment.bytes_written w > r.max_bytes then begin
        r.summaries <- Segment.seal w :: r.summaries;
        r.writer <- None
      end

let rolling_finish r =
  (match r.writer with
  | Some w when Segment.n_keys_written w > 0 ->
      r.summaries <- Segment.seal w :: r.summaries
  | Some _ | None -> ());
  r.writer <- None;
  List.rev r.summaries

(* --- run files ---------------------------------------------------------- *)

(* A run file is: pair count (i64), then each packed pair as a varint
   delta from its predecessor (from -1 for the first, so deltas are
   always >= 1: pairs are unique). *)

let run_path dir idx = Filename.concat dir (Printf.sprintf "run-%04d.tmp" idx)

let write_run path pairs ~len =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Wire.write_i64 buf (Int64.of_int len);
      let prev = ref (-1) in
      for i = 0 to len - 1 do
        Wire.write_varint buf (pairs.(i) - !prev);
        prev := pairs.(i);
        if Buffer.length buf >= 65536 then begin
          Buffer.output_buffer oc buf;
          Buffer.clear buf
        end
      done;
      Buffer.output_buffer oc buf)

let fail_run msg = invalid_arg ("Segstore.Ingest: run file " ^ msg)

let read_run_i64 ic =
  let v = ref 0L in
  for i = 0 to 7 do
    match In_channel.input_byte ic with
    | None -> fail_run "truncated header"
    | Some b -> v := Int64.logor !v (Int64.shift_left (Int64.of_int b) (8 * i))
  done;
  !v

let read_run_varint ic =
  let acc = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 62 then fail_run "varint too long";
    match In_channel.input_byte ic with
    | None -> fail_run "truncated varint"
    | Some b ->
        acc := !acc lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        if b land 0x80 = 0 then continue := false
  done;
  if !acc < 0 then fail_run "varint overflow";
  !acc

(* --- k-way merge streams ------------------------------------------------ *)

type stream = { mutable cur : int; next : unit -> int option }

let stream_of_run path =
  let ic = open_in_bin path in
  let remaining = ref (Int64.to_int (read_run_i64 ic)) in
  if !remaining < 0 then fail_run "bad pair count";
  let prev = ref (-1) in
  let next () =
    if !remaining = 0 then begin
      close_in ic;
      None
    end
    else begin
      decr remaining;
      let v = !prev + read_run_varint ic in
      if v <= !prev then fail_run "pairs not increasing";
      prev := v;
      Some v
    end
  in
  next

let stream_of_array pairs ~len =
  let i = ref 0 in
  fun () ->
    if !i >= len then None
    else begin
      let v = pairs.(!i) in
      incr i;
      Some v
    end

(* Array min-heap on [cur]; exhausted streams are removed. *)
let merge nexts ~f =
  let heap =
    Array.of_list
      (List.filter_map
         (fun next -> match next () with Some v -> Some { cur = v; next } | None -> None)
         nexts)
  in
  let size = ref (Array.length heap) in
  let swap i j =
    let tmp = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- tmp
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < !size && heap.(l).cur < heap.(!m).cur then m := l;
    if r < !size && heap.(r).cur < heap.(!m).cur then m := r;
    if !m <> i then begin
      swap i !m;
      sift_down !m
    end
  in
  for i = (!size / 2) - 1 downto 0 do
    sift_down i
  done;
  let last = ref (-1) in
  while !size > 0 do
    let s = heap.(0) in
    (* pairs are globally unique, but stay safe under replayed runs *)
    if s.cur > !last then begin
      f s.cur;
      last := s.cur
    end;
    (match s.next () with
    | Some v ->
        if v <= s.cur then fail_run "stream not increasing";
        s.cur <- v
    | None ->
        decr size;
        swap 0 !size);
    if !size > 0 then sift_down 0
  done

(* --- the ingester ------------------------------------------------------- *)

type t = {
  dir : string;
  t_config : config;
  n_concepts : int;
  forward : rolling;
  pairs : int array;  (* run buffer *)
  mutable fill : int;
  mutable runs : int;
  mutable n_citations : int;
  mutable n_associations : int;
  concepts_buf : int array;  (* one citation's concepts, reused *)
  mutable sealed : bool;
}

type summary = {
  n_citations : int;
  n_associations : int;
  runs_spilled : int;
  n_segments : int;
  bytes : int;
}

let ensure_dir dir =
  try Unix.mkdir dir 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Segment and run file names are fixed ([fwd-0000.seg], [run-0000.tmp],
   ...), so ingesting over an existing store would truncate the live
   generation's segments before the new manifest exists, and a re-ingest
   that fails partway would leave a store that no longer opens. *)
let store_file f =
  f = Manifest.filename
  || f = Manifest.filename ^ ".tmp"
  || Filename.check_suffix f ".seg"
  || (String.starts_with ~prefix:"run-" f && Filename.check_suffix f ".tmp")

let create ?(config = default_config) ~n_concepts dir =
  if n_concepts < 0 || n_concepts >= max_component then
    invalid_arg "Segstore.Ingest: concept space exceeds 31 bits";
  if config.run_budget_pairs < 1 then
    invalid_arg "Segstore.Ingest: run budget must be positive";
  if Sys.file_exists dir && Sys.is_directory dir && Array.exists store_file (Sys.readdir dir)
  then
    invalid_arg
      (Printf.sprintf
         "Segstore.Ingest: %s already holds a segment store (or a partial one); ingest into a \
          new or empty directory"
         dir);
  ensure_dir dir;
  {
    dir;
    t_config = config;
    n_concepts;
    forward =
      rolling ~dir ~prefix:"fwd" ~orientation:Segment.Forward
        ~max_bytes:config.segment_max_bytes;
    pairs = Array.make config.run_budget_pairs 0;
    fill = 0;
    runs = 0;
    n_citations = 0;
    n_associations = 0;
    concepts_buf = Array.make 4096 0;
    sealed = false;
  }

(* Sort the filled prefix in place: pad the tail with max_int (sorts
   last), sort the whole array. No transient copy — the run buffer is the
   ingest memory bound and must stay the only big allocation. *)
let sort_prefix pairs ~fill =
  Array.fill pairs fill (Array.length pairs - fill) max_int;
  Array.sort Int.compare pairs

let spill t =
  if t.fill > 0 then begin
    sort_prefix t.pairs ~fill:t.fill;
    write_run (run_path t.dir t.runs) t.pairs ~len:t.fill;
    t.runs <- t.runs + 1;
    t.fill <- 0;
    Metrics.incr runs_spilled_total
  end

let add_citation t ~id iter_concepts =
  if t.sealed then invalid_arg "Segstore.Ingest: sealed";
  if id <> t.n_citations then
    invalid_arg
      (Printf.sprintf "Segstore.Ingest: citation %d out of order (expected %d)" id
         t.n_citations);
  if id >= max_component then invalid_arg "Segstore.Ingest: citation id exceeds 31 bits";
  let n = ref 0 in
  iter_concepts (fun concept ->
      if concept < 0 || concept >= t.n_concepts then
        invalid_arg (Printf.sprintf "Segstore.Ingest: concept %d out of range" concept);
      if !n >= Array.length t.concepts_buf then
        invalid_arg "Segstore.Ingest: citation has too many concepts";
      t.concepts_buf.(!n) <- concept;
      incr n);
  if !n > 0 then begin
    rolling_begin_key t.forward id;
    for i = 0 to !n - 1 do
      rolling_add t.forward t.concepts_buf.(i);
      if t.fill = Array.length t.pairs then spill t;
      t.pairs.(t.fill) <- pack ~concept:t.concepts_buf.(i) ~cit:id;
      t.fill <- t.fill + 1
    done;
    rolling_end_key t.forward
  end;
  t.n_citations <- t.n_citations + 1;
  t.n_associations <- t.n_associations + !n;
  Metrics.incr citations_total

let seal t =
  if t.sealed then invalid_arg "Segstore.Ingest: sealed";
  t.sealed <- true;
  let forward_summaries = rolling_finish t.forward in
  (* residual buffer joins the merge in place — no extra spill *)
  sort_prefix t.pairs ~fill:t.fill;
  let streams =
    stream_of_array t.pairs ~len:t.fill
    :: List.init t.runs (fun i -> stream_of_run (run_path t.dir i))
  in
  let inverted =
    rolling ~dir:t.dir ~prefix:"inv" ~orientation:Segment.Inverted
      ~max_bytes:t.t_config.segment_max_bytes
  in
  let cur_concept = ref (-1) in
  let merged = ref 0 in
  merge streams ~f:(fun pair ->
      let concept = pair_concept pair and cit = pair_cit pair in
      if concept <> !cur_concept then begin
        if !cur_concept >= 0 then rolling_end_key inverted;
        rolling_begin_key inverted concept;
        cur_concept := concept
      end;
      rolling_add inverted cit;
      incr merged);
  if !cur_concept >= 0 then rolling_end_key inverted;
  let inverted_summaries = rolling_finish inverted in
  if !merged <> t.n_associations then
    invalid_arg "Segstore.Ingest: merge lost associations";
  let segments = inverted_summaries @ forward_summaries in
  Manifest.write ~dir:t.dir
    {
      Manifest.n_concepts = t.n_concepts;
      n_citations = t.n_citations;
      n_associations = t.n_associations;
      segments = List.map Manifest.entry_of_summary segments;
    };
  for i = 0 to t.runs - 1 do
    try Sys.remove (run_path t.dir i) with Sys_error _ -> ()
  done;
  {
    n_citations = t.n_citations;
    n_associations = t.n_associations;
    runs_spilled = t.runs;
    n_segments = List.length segments;
    bytes = List.fold_left (fun acc (s : Segment.summary) -> acc + s.Segment.bytes) 0 segments;
  }

(* --- conveniences ------------------------------------------------------- *)

module Medline = Bionav_corpus.Medline
module Generator = Bionav_corpus.Generator
module Nbib = Bionav_corpus.Nbib
module Citation = Bionav_corpus.Citation

let ingest_medline ?config ~dir medline =
  let hierarchy = Medline.hierarchy medline in
  let t =
    create ?config ~n_concepts:(Bionav_mesh.Hierarchy.size hierarchy) dir
  in
  for id = 0 to Medline.size medline - 1 do
    add_citation t ~id (fun f -> Medline.iter_citation_concepts medline id f)
  done;
  seal t

let ingest_generated ?config ~dir ~params ~seed hierarchy =
  let t = create ?config ~n_concepts:(Bionav_mesh.Hierarchy.size hierarchy) dir in
  Generator.iter ~params ~seed hierarchy ~f:(fun c ->
      add_citation t ~id:(Citation.id c) (fun f ->
          Intset.iter f (Citation.concepts c)));
  seal t

let ingest_nbib ?config ?on_unknown_mh ~dir ~hierarchy path =
  let t = create ?config ~n_concepts:(Bionav_mesh.Hierarchy.size hierarchy) dir in
  Nbib.fold_file ?on_unknown_mh ~hierarchy path ~init:() ~f:(fun () c ->
      add_citation t ~id:(Citation.id c) (fun f ->
          Intset.iter f (Citation.concepts c)));
  seal t
