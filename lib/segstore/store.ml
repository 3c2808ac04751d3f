open Bionav_util

type config = { cache_budget_bytes : int; verify_data : bool }

let default_config = { cache_budget_bytes = 4 * 1024 * 1024; verify_data = false }

type spec = { dir : string; spec_config : config }

let spec ?(config = default_config) dir = { dir; spec_config = config }

type t = {
  t_dir : string;
  t_config : config;
  manifest : Manifest.t;
  inverted : Segment.t array;  (* sorted by first_key, disjoint ranges *)
  forward : Segment.t array;
  cache : Block_cache.t;
}

let segments_g = Metrics.gauge "bionav_segstore_segments"
let file_bytes_g = Metrics.gauge "bionav_segstore_file_bytes"

let fail msg = invalid_arg ("Segstore.open_dir: " ^ msg)

let check_entry (e : Manifest.entry) seg =
  let ok =
    Segment.orientation seg = e.Manifest.orientation
    && Segment.first_key seg = e.Manifest.first_key
    && Segment.last_key seg = e.Manifest.last_key
    && Segment.n_keys seg = e.Manifest.n_keys
    && Segment.n_postings seg = e.Manifest.n_postings
    && Segment.file_bytes seg = e.Manifest.bytes
    && Segment.data_checksum seg = e.Manifest.checksum
  in
  if not ok then
    fail (Printf.sprintf "segment %s does not match its manifest entry" e.Manifest.file)

let ordered what segs =
  Array.iteri
    (fun i seg ->
      if i > 0 && Segment.first_key seg <= Segment.last_key segs.(i - 1) then
        fail (Printf.sprintf "%s segments have overlapping key ranges" what))
    segs;
  segs

let open_dir ?(config = default_config) dir =
  let manifest = Manifest.read ~dir in
  let open_entry (e : Manifest.entry) =
    let seg =
      Segment.openfile ~verify_data:config.verify_data
        (Filename.concat dir e.Manifest.file)
    in
    check_entry e seg;
    seg
  in
  let part o =
    List.filter (fun (e : Manifest.entry) -> e.Manifest.orientation = o)
      manifest.Manifest.segments
  in
  let inverted =
    ordered "inverted" (Array.of_list (List.map open_entry (part Segment.Inverted)))
  in
  let forward =
    ordered "forward" (Array.of_list (List.map open_entry (part Segment.Forward)))
  in
  let total o =
    List.fold_left (fun acc (e : Manifest.entry) -> acc + e.Manifest.n_postings) 0 (part o)
  in
  if total Segment.Inverted <> manifest.Manifest.n_associations then
    fail "inverted posting total does not match n_associations";
  if total Segment.Forward <> manifest.Manifest.n_associations then
    fail "forward posting total does not match n_associations";
  {
    t_dir = dir;
    t_config = config;
    manifest;
    inverted;
    forward;
    cache = Block_cache.create ~budget_bytes:config.cache_budget_bytes;
  }

let dir t = t.t_dir
let n_concepts t = t.manifest.Manifest.n_concepts
let n_citations t = t.manifest.Manifest.n_citations
let n_associations t = t.manifest.Manifest.n_associations
let n_segments t = Array.length t.inverted + Array.length t.forward
let config t = t.t_config

let file_bytes t =
  List.fold_left
    (fun acc (e : Manifest.entry) -> acc + e.Manifest.bytes)
    0 t.manifest.Manifest.segments

(* Last segment whose first_key <= key; ranges are disjoint and sorted. *)
let segment_for segs key =
  let lo = ref 0 and hi = ref (Array.length segs - 1) and best = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if Segment.first_key segs.(mid) <= key then begin
      best := Some segs.(mid);
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  match !best with
  | Some seg when key <= Segment.last_key seg -> Some seg
  | _ -> None

let locate segs key =
  match segment_for segs key with
  | None -> None
  | Some seg -> (
      match Segment.find seg key with None -> None | Some kidx -> Some (seg, kidx))

let check_concept t concept =
  if concept < 0 || concept >= n_concepts t then
    invalid_arg (Printf.sprintf "Segstore: concept %d out of range" concept)

let check_citation t cit =
  if cit < 0 || cit >= n_citations t then
    invalid_arg (Printf.sprintf "Segstore: citation %d out of range" cit)

let concept_count t concept =
  check_concept t concept;
  match segment_for t.inverted concept with
  | None -> 0
  | Some seg -> Segment.count seg concept

let iter_postings t concept f =
  check_concept t concept;
  match segment_for t.inverted concept with
  | None -> ()
  | Some seg -> Segment.iter seg concept f

let iter_concepts_of_citation t cit f =
  check_citation t cit;
  match segment_for t.forward cit with
  | None -> ()
  | Some seg -> Segment.iter seg cit f

(* Materialize through the cache. A single-block key returns the cached
   block's docset directly; a multi-block key assembles the cached blocks
   into one fresh sorted array. *)
let materialize t segs key =
  match locate segs key with
  | None -> Docset.empty
  | Some (seg, kidx) ->
      if Segment.n_blocks_at seg kidx = 1 then Block_cache.block t.cache seg kidx 0
      else begin
        let total = Segment.count_at seg kidx in
        let dst = Array.make total 0 in
        let off = ref 0 in
        for bidx = 0 to Segment.n_blocks_at seg kidx - 1 do
          let ds = Block_cache.block t.cache seg kidx bidx in
          Docset.iter
            (fun v ->
              dst.(!off) <- v;
              incr off)
            ds
        done;
        Docset.of_sorted_array_unchecked dst
      end

let postings t concept =
  check_concept t concept;
  materialize t t.inverted concept

let concepts_of_citation t cit =
  check_citation t cit;
  materialize t t.forward cit

let publish_metrics t =
  Block_cache.publish t.cache;
  Metrics.set segments_g (float_of_int (n_segments t));
  Metrics.set file_bytes_g (float_of_int (file_bytes t))
