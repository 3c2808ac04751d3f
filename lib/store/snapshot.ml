open Bionav_util
open Codec.Wire

let magic = "BIONAVSNAP"

(* The one version written and read: results are a deduplicated set
   table — structurally equal result sets are written once and entries
   reference them by index. A snapshot is bound to one database's
   dimensions, so one of another version is rebuilt with [bionav warm],
   not migrated. *)
let version = 2

type entry = { query : string; results : Intset.t; root_cut : int list }

let encode ~db entries =
  let body = Buffer.create (1 lsl 16) in
  write_i32 body (Bionav_mesh.Hierarchy.size (Database.hierarchy db));
  write_i32 body (Database.n_citations db);
  (* Set table: the empty set first, then each distinct result set in
     the order entries first reach it. *)
  let index = Hashtbl.create 16 and table = ref [ Intset.empty ] in
  Hashtbl.add index Intset.empty 0;
  let set_ids =
    List.map
      (fun e ->
        match Hashtbl.find_opt index e.results with
        | Some id -> id
        | None ->
            let id = Hashtbl.length index in
            Hashtbl.add index e.results id;
            table := e.results :: !table;
            id)
      entries
  in
  write_i32 body (Hashtbl.length index);
  List.iter
    (fun set ->
      write_i32 body (Intset.cardinal set);
      Intset.iter (fun cit -> write_i32 body cit) set)
    (List.rev !table);
  write_i32 body (List.length entries);
  List.iter2
    (fun e set_id ->
      write_string body e.query;
      write_i32 body set_id;
      write_i32 body (List.length e.root_cut);
      List.iter (fun n -> write_i32 body n) e.root_cut)
    entries set_ids;
  let body = Buffer.contents body in
  let out = Buffer.create (String.length body + 32) in
  Buffer.add_string out magic;
  write_i32 out version;
  write_i64 out (fnv1a64 body);
  Buffer.add_string out body;
  Buffer.contents out

(* Counts are bounded by the bytes actually left before any allocation
   sized by them — a corrupted length must fail as truncation, never
   attempt a huge Array.init. *)
let read_sorted_set cur =
  let k = read_i32 cur in
  if k < 0 || k > remaining cur / 4 then fail "snapshot: result count exceeds input";
  let a = Array.init k (fun _ -> read_i32 cur) in
  for i = 1 to k - 1 do
    if a.(i - 1) >= a.(i) then fail "snapshot: result set not sorted strictly increasing"
  done;
  Intset.of_sorted_array_unchecked a

let read_cut cur =
  let c = read_i32 cur in
  if c < 0 || c > remaining cur / 4 then fail "snapshot: cut length exceeds input";
  List.init c (fun _ -> read_i32 cur)

let decode_body cur =
  let n_sets = read_i32 cur in
  if n_sets < 0 || n_sets > remaining cur / 4 then fail "snapshot: set count exceeds input";
  let sets = Array.init n_sets (fun _ -> read_sorted_set cur) in
  let n = read_i32 cur in
  if n < 0 || n > remaining cur / 12 then fail "snapshot: entry count exceeds input";
  List.init n (fun _ ->
      let query = read_string cur in
      let set_id = read_i32 cur in
      if set_id < 0 || set_id >= n_sets then
        fail (Printf.sprintf "snapshot: entry references set %d of %d" set_id n_sets);
      let root_cut = read_cut cur in
      { query; results = sets.(set_id); root_cut })

let decode ~db data =
  let mlen = String.length magic in
  if String.length data < mlen || String.sub data 0 mlen <> magic then
    fail "snapshot: bad magic";
  let cur = cursor ~pos:mlen data in
  let v = read_i32 cur in
  if v <> version then
    fail (Printf.sprintf "snapshot: version %d not supported (supported: %d)" v version);
  let stored_sum = read_i64 cur in
  let body = String.sub data (pos cur) (remaining cur) in
  if fnv1a64 body <> stored_sum then fail "snapshot: checksum mismatch";
  let cur = cursor body in
  let hsize = read_i32 cur in
  let ncit = read_i32 cur in
  if hsize <> Bionav_mesh.Hierarchy.size (Database.hierarchy db) then
    fail "snapshot: built against a different hierarchy";
  if ncit <> Database.n_citations db then
    fail "snapshot: built against a different corpus";
  let entries = decode_body cur in
  if remaining cur <> 0 then fail "snapshot: trailing bytes";
  entries

let save ~db entries path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode ~db entries))

let load ~db path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode ~db (really_input_string ic (in_channel_length ic)))
