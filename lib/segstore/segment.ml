module Wire = Bionav_store.Codec.Wire

type orientation = Inverted | Forward

let magic = "BIONAVSEG1"
let header_bytes = String.length magic + 1
let footer_bytes = (3 * 8) + String.length magic

let orientation_char = function Inverted -> 'I' | Forward -> 'F'

let orientation_of_char = function
  | 'I' -> Inverted
  | 'F' -> Forward
  | c -> Block_codec.fail (Printf.sprintf "unknown orientation %C" c)

(* --- writing ------------------------------------------------------------ *)

type writer = {
  w_path : string;
  w_orientation : orientation;
  oc : out_channel;
  block : int array;  (* pending postings of the open key *)
  scratch : Buffer.t;
  mutable block_fill : int;
  mutable key_open : bool;
  mutable cur_key : int;
  mutable last_posting : int;
  mutable key_count : int;
  mutable key_blocks : (int * int * int) list;  (* first, count, len; reversed *)
  dir_body : Buffer.t;  (* per-key directory entries, serialized as sealed *)
  mutable w_n_keys : int;
  mutable w_n_postings : int;
  mutable w_first_key : int;
  mutable w_last_key : int;
  mutable data_bytes : int;
  mutable checksum : int64;
}

type summary = {
  path : string;
  orientation : orientation;
  n_keys : int;
  n_postings : int;
  bytes : int;
  first_key : int;
  last_key : int;
  data_checksum : int64;
}

let create_writer ~path ~orientation =
  let oc = open_out_bin path in
  output_string oc magic;
  output_char oc (orientation_char orientation);
  {
    w_path = path;
    w_orientation = orientation;
    oc;
    block = Array.make Block_codec.block_size 0;
    scratch = Buffer.create 512;
    block_fill = 0;
    key_open = false;
    cur_key = -1;
    last_posting = -1;
    key_count = 0;
    key_blocks = [];
    dir_body = Buffer.create 4096;
    w_n_keys = 0;
    w_n_postings = 0;
    w_first_key = -1;
    w_last_key = -1;
    data_bytes = 0;
    checksum = Wire.fnv1a64 "";
  }

let flush_block w =
  if w.block_fill > 0 then begin
    Buffer.clear w.scratch;
    Block_codec.encode_block w.scratch w.block ~off:0 ~len:w.block_fill;
    let s = Buffer.contents w.scratch in
    w.checksum <- Wire.fnv1a64 ~init:w.checksum s;
    output_string w.oc s;
    w.key_blocks <- (w.block.(0), w.block_fill, String.length s) :: w.key_blocks;
    w.data_bytes <- w.data_bytes + String.length s;
    w.block_fill <- 0
  end

let begin_key w key =
  if w.key_open then invalid_arg "Segstore.Segment: key already open";
  if key < 0 then invalid_arg "Segstore.Segment: negative key";
  if w.w_n_keys > 0 && key <= w.w_last_key then
    invalid_arg "Segstore.Segment: keys not strictly increasing";
  w.cur_key <- key;
  w.key_open <- true;
  w.key_count <- 0;
  w.key_blocks <- [];
  w.last_posting <- -1

let add w v =
  if not w.key_open then invalid_arg "Segstore.Segment: no open key";
  if v < 0 || v <= w.last_posting then
    invalid_arg "Segstore.Segment: postings not strictly increasing";
  w.block.(w.block_fill) <- v;
  w.block_fill <- w.block_fill + 1;
  w.last_posting <- v;
  w.key_count <- w.key_count + 1;
  if w.block_fill = Block_codec.block_size then flush_block w

(* Serialize the key's directory entry now, in the sealed wire layout:
   the writer's resident footprint must not grow with the key count (the
   forward orientation has one key per citation). *)
let end_key w =
  if not w.key_open then invalid_arg "Segstore.Segment: no open key";
  flush_block w;
  if w.key_count = 0 then invalid_arg "Segstore.Segment: empty key";
  let blocks = List.rev w.key_blocks in
  Wire.write_i32 w.dir_body w.cur_key;
  Wire.write_i32 w.dir_body w.key_count;
  Wire.write_i32 w.dir_body (List.length blocks);
  List.iter
    (fun (first, bcount, len) ->
      Wire.write_i32 w.dir_body first;
      Wire.write_i32 w.dir_body bcount;
      Wire.write_i32 w.dir_body len)
    blocks;
  w.key_blocks <- [];
  if w.w_n_keys = 0 then w.w_first_key <- w.cur_key;
  w.w_last_key <- w.cur_key;
  w.w_n_keys <- w.w_n_keys + 1;
  w.w_n_postings <- w.w_n_postings + w.key_count;
  w.key_open <- false

let bytes_written w = w.data_bytes
let n_keys_written w = w.w_n_keys

let seal w =
  if w.key_open then invalid_arg "Segstore.Segment: seal with open key";
  if w.w_n_keys = 0 then invalid_arg "Segstore.Segment: seal with no keys";
  let dir_head = Buffer.create 16 in
  Wire.write_i32 dir_head w.w_n_keys;
  Wire.write_i64 dir_head (Int64.of_int w.w_n_postings);
  let head = Buffer.contents dir_head in
  let body = Buffer.contents w.dir_body in
  let dir_offset = header_bytes + w.data_bytes in
  let footer = Buffer.create footer_bytes in
  Wire.write_i64 footer (Int64.of_int dir_offset);
  Wire.write_i64 footer w.checksum;
  Wire.write_i64 footer (Wire.fnv1a64 ~init:(Wire.fnv1a64 head) body);
  Buffer.add_string footer magic;
  output_string w.oc head;
  output_string w.oc body;
  output_string w.oc (Buffer.contents footer);
  flush w.oc;
  Unix.fsync (Unix.descr_of_out_channel w.oc);
  close_out w.oc;
  {
    path = w.w_path;
    orientation = w.w_orientation;
    n_keys = w.w_n_keys;
    n_postings = w.w_n_postings;
    bytes = dir_offset + String.length head + String.length body + footer_bytes;
    first_key = w.w_first_key;
    last_key = w.w_last_key;
    data_checksum = w.checksum;
  }

(* --- reading ------------------------------------------------------------ *)

type t = {
  r_uid : int;
  r_path : string;
  r_orientation : orientation;
  data : Block_codec.bigstring;
  dim : int;
  dir_offset : int;
  r_data_checksum : int64;
  keys : int array;
  counts : int array;
  key_block_start : int array;  (* n_keys + 1 prefix into the blk_* arrays *)
  blk_first : int array;
  blk_count : int array;
  blk_off : int array;
  blk_len : int array;
  r_n_postings : int;
}

let next_uid = Atomic.make 0

let check_magic data pos what =
  for i = 0 to String.length magic - 1 do
    if Bigarray.Array1.get data (pos + i) <> magic.[i] then
      Block_codec.fail (what ^ " magic mismatch")
  done

let openfile ?(verify_data = false) path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let data, dim =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size < header_bytes + footer_bytes then
          Block_codec.fail "segment file too small";
        let g = Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |] in
        (Bigarray.array1_of_genarray g, size))
  in
  check_magic data 0 "header";
  let r_orientation =
    orientation_of_char (Bigarray.Array1.get data (String.length magic))
  in
  check_magic data (dim - String.length magic) "footer";
  let footer = Block_codec.cursor data ~pos:(dim - footer_bytes) ~limit:dim in
  let dir_offset = Int64.to_int (Block_codec.read_i64 footer) in
  let r_data_checksum = Block_codec.read_i64 footer in
  let dir_checksum = Block_codec.read_i64 footer in
  if dir_offset < header_bytes || dir_offset > dim - footer_bytes then
    Block_codec.fail "directory offset out of range";
  let dir_len = dim - footer_bytes - dir_offset in
  if Block_codec.fnv1a64 data ~pos:dir_offset ~len:dir_len <> dir_checksum then
    Block_codec.fail "directory checksum mismatch";
  let c = Block_codec.cursor data ~pos:dir_offset ~limit:(dir_offset + dir_len) in
  let n_keys = Block_codec.read_i32 c in
  (* every key costs >= 24 directory bytes (key/count/n_blocks + one block) *)
  if n_keys < 1 || n_keys > Block_codec.remaining c / 24 then
    Block_codec.fail "key count exceeds directory";
  let total_postings = Int64.to_int (Block_codec.read_i64 c) in
  if total_postings < n_keys then Block_codec.fail "posting total below key count";
  let keys = Array.make n_keys 0 in
  let counts = Array.make n_keys 0 in
  let key_block_start = Array.make (n_keys + 1) 0 in
  let blks = ref [] (* (first, bcount, off, len), reversed *) in
  let n_blks = ref 0 in
  let off = ref header_bytes in
  let postings_seen = ref 0 in
  for k = 0 to n_keys - 1 do
    let key = Block_codec.read_i32 c in
    if key < 0 then Block_codec.fail "negative key";
    if k > 0 && key <= keys.(k - 1) then
      Block_codec.fail "keys not strictly increasing";
    let count = Block_codec.read_i32 c in
    let n_blocks = Block_codec.read_i32 c in
    if count < 1 || n_blocks < 1 || n_blocks > count then
      Block_codec.fail "bad key block count";
    if n_blocks > Block_codec.remaining c / 12 then
      Block_codec.fail "block count exceeds directory";
    keys.(k) <- key;
    counts.(k) <- count;
    key_block_start.(k) <- !n_blks;
    let seen = ref 0 and prev_first = ref (-1) in
    for _ = 1 to n_blocks do
      let first = Block_codec.read_i32 c in
      let bcount = Block_codec.read_i32 c in
      let len = Block_codec.read_i32 c in
      if first < 0 || first <= !prev_first then
        Block_codec.fail "block firsts not increasing";
      if bcount < 1 || bcount > Block_codec.block_size || bcount > len then
        Block_codec.fail "bad block cardinality";
      if len < 1 || !off + len > dir_offset then
        Block_codec.fail "block overruns data region";
      prev_first := first;
      seen := !seen + bcount;
      blks := (first, bcount, !off, len) :: !blks;
      incr n_blks;
      off := !off + len
    done;
    if !seen <> count then Block_codec.fail "key cardinality mismatch";
    postings_seen := !postings_seen + count
  done;
  key_block_start.(n_keys) <- !n_blks;
  if Block_codec.remaining c <> 0 then Block_codec.fail "directory has trailing bytes";
  if !off <> dir_offset then Block_codec.fail "data region size mismatch";
  if !postings_seen <> total_postings then Block_codec.fail "posting total mismatch";
  let blk_first = Array.make !n_blks 0 in
  let blk_count = Array.make !n_blks 0 in
  let blk_off = Array.make !n_blks 0 in
  let blk_len = Array.make !n_blks 0 in
  List.iteri
    (fun i (first, bcount, boff, len) ->
      let b = !n_blks - 1 - i in
      blk_first.(b) <- first;
      blk_count.(b) <- bcount;
      blk_off.(b) <- boff;
      blk_len.(b) <- len)
    !blks;
  let t =
    {
      r_uid = Atomic.fetch_and_add next_uid 1;
      r_path = path;
      r_orientation;
      data;
      dim;
      dir_offset;
      r_data_checksum;
      keys;
      counts;
      key_block_start;
      blk_first;
      blk_count;
      blk_off;
      blk_len;
      r_n_postings = total_postings;
    }
  in
  if verify_data then begin
    let sum =
      Block_codec.fnv1a64 data ~pos:header_bytes ~len:(dir_offset - header_bytes)
    in
    if sum <> r_data_checksum then Block_codec.fail "data checksum mismatch"
  end;
  t

let uid t = t.r_uid
let path t = t.r_path
let orientation t = t.r_orientation
let n_keys t = Array.length t.keys
let n_postings t = t.r_n_postings
let first_key t = t.keys.(0)
let last_key t = t.keys.(Array.length t.keys - 1)
let file_bytes t = t.dim
let data_checksum t = t.r_data_checksum

let find t key =
  let lo = ref 0 and hi = ref (Array.length t.keys - 1) and found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k = t.keys.(mid) in
    if k = key then found := Some mid
    else if k < key then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let count_at t k = t.counts.(k)
let count t key = match find t key with None -> 0 | Some k -> t.counts.(k)
let n_blocks_at t k = t.key_block_start.(k + 1) - t.key_block_start.(k)

let block_index t kidx bidx =
  if bidx < 0 || bidx >= n_blocks_at t kidx then
    invalid_arg "Segstore.Segment: block index out of range";
  t.key_block_start.(kidx) + bidx


let check_block_bounds t kidx bidx dst dst_off =
  let b = block_index t kidx bidx in
  let count = t.blk_count.(b) in
  if dst.(dst_off) <> t.blk_first.(b) then
    Block_codec.fail "block first docid mismatch";
  (* a corrupt block must not bleed into its successor's range *)
  if b + 1 < t.key_block_start.(kidx + 1)
     && dst.(dst_off + count - 1) >= t.blk_first.(b + 1)
  then Block_codec.fail "block overlaps successor"

let decode_block_into t kidx bidx dst ~dst_off =
  let b = block_index t kidx bidx in
  Block_codec.decode_block_into t.data ~pos:t.blk_off.(b) ~len:t.blk_len.(b)
    ~count:t.blk_count.(b) dst ~dst_off;
  check_block_bounds t kidx bidx dst dst_off

let decode_block t kidx bidx =
  let b = block_index t kidx bidx in
  let dst =
    Block_codec.decode_block t.data ~pos:t.blk_off.(b) ~len:t.blk_len.(b)
      ~count:t.blk_count.(b)
  in
  check_block_bounds t kidx bidx dst 0;
  dst

let iter t key f =
  match find t key with
  | None -> ()
  | Some kidx ->
      let prev = ref (-1) in
      for b = t.key_block_start.(kidx) to t.key_block_start.(kidx + 1) - 1 do
        let c =
          Block_codec.cursor t.data ~pos:t.blk_off.(b)
            ~limit:(t.blk_off.(b) + t.blk_len.(b))
        in
        let v = ref (Block_codec.read_varint c) in
        if !v <> t.blk_first.(b) then Block_codec.fail "block first docid mismatch";
        if !v <= !prev then Block_codec.fail "blocks not increasing";
        f !v;
        for _ = 2 to t.blk_count.(b) do
          let gap = Block_codec.read_varint c in
          if gap <= 0 then Block_codec.fail "block gap not positive";
          let next = !v + gap in
          if next < 0 then Block_codec.fail "block posting overflow";
          v := next;
          f next
        done;
        if Block_codec.remaining c <> 0 then Block_codec.fail "block has trailing bytes";
        prev := !v
      done

let verify_data t =
  let sum =
    Block_codec.fnv1a64 t.data ~pos:header_bytes ~len:(t.dir_offset - header_bytes)
  in
  if sum <> t.r_data_checksum then Block_codec.fail "data checksum mismatch"
