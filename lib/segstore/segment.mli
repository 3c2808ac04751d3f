(** Immutable on-disk segments: sorted keys, each owning a posting list
    stored as delta+varint blocks ({!Block_codec}).

    Layout (little-endian, magic ["BIONAVSEG1"]):

    {v
      header     magic (10 bytes) | orientation ('I' inverted / 'F' forward)
      data       concatenated encoded blocks, in key then block order
      directory  n_keys i32 | total_postings i64
                 per key:   key i32 | count i32 | n_blocks i32
                            per block: first_docid i32 | count i32 | len i32
      footer     dir_offset i64 | data_checksum i64 | dir_checksum i64 | magic
    v}

    Block byte offsets are implicit (cumulative from the header end), so
    the directory alone answers [count]/[first]/[cardinality] queries —
    counts never touch the data region. Readers memory-map the file and
    verify the directory checksum eagerly; the data checksum is verified
    on demand ([verify_data]) or implicitly, block by block, as decoding
    validates counts and monotonicity. *)

type orientation = Inverted | Forward

(* --- writing ------------------------------------------------------------ *)

type writer

val create_writer : path:string -> orientation:orientation -> writer

val begin_key : writer -> int -> unit
(** Keys must arrive strictly increasing. @raise Invalid_argument
    otherwise, or if a key is already open. *)

val add : writer -> int -> unit
(** Append one posting to the open key; postings must arrive strictly
    increasing and non-negative. Full blocks are flushed to disk
    immediately, so writer memory is one block. *)

val end_key : writer -> unit
(** Close the open key. Keys with zero postings are rejected — absent
    keys read back as empty. *)

val bytes_written : writer -> int
(** Data bytes flushed so far (for rolling segment cut decisions). *)

val n_keys_written : writer -> int

type summary = {
  path : string;
  orientation : orientation;
  n_keys : int;
  n_postings : int;
  bytes : int;  (** Total file size. *)
  first_key : int;
  last_key : int;
  data_checksum : int64;
}

val seal : writer -> summary
(** Write directory and footer, fsync and close the file. The writer is
    dead afterwards. @raise Invalid_argument if no key was ever written. *)

(* --- reading ------------------------------------------------------------ *)

type t

val openfile : ?verify_data:bool -> string -> t
(** Map the file and parse the directory (checksummed). [verify_data]
    additionally scans the whole data region against the footer checksum.
    @raise Invalid_argument (via {!Block_codec.fail}) on corruption,
    [Sys_error]/[Unix.Unix_error] on I/O failure. *)

val uid : t -> int
(** Process-unique id (block-cache key component). *)

val path : t -> string
val orientation : t -> orientation
val n_keys : t -> int
val n_postings : t -> int
val first_key : t -> int
val last_key : t -> int
val file_bytes : t -> int
val data_checksum : t -> int64

val find : t -> int -> int option
(** Binary-search a key; returns its index. *)

val count_at : t -> int -> int
val count : t -> int -> int
(** Postings under a key, 0 if absent — pure directory metadata. *)

val n_blocks_at : t -> int -> int

val decode_block : t -> int -> int -> int array
(** [decode_block t kidx bidx] — validated against the directory's first
    docid and count for that block. *)

val decode_block_into : t -> int -> int -> int array -> dst_off:int -> unit

val iter : t -> int -> (int -> unit) -> unit
(** [iter t key f] streams the key's postings in increasing order,
    decoding block by block from the mapping — no cache, no shared
    mutable state, safe from any domain. Absent keys visit nothing. *)

val verify_data : t -> unit
(** Full data-region checksum scan. @raise Invalid_argument on mismatch. *)
