type id = int

(* Physical representation of one interned set. The density split follows
   the hybrid posting-list design from the IR literature: a set whose
   packed bitset over its own span is smaller than its sorted array is
   stored as the bitset (32 payload bits per word so popcounts stay in
   Bits.pop32 territory), everything else as the sorted array. The choice
   is deterministic in the content, so structurally equal sets always pack
   identically and interning can compare representations directly. *)
type repr =
  | Sparse of int array  (* sorted strictly increasing *)
  | Dense of { base : int; words : int array; card : int }
      (* bit [i] of [words.(w)] set <=> [base + 32*w + i] is a member;
         [base] is a multiple of 32 and elements are non-negative *)

(* Interned slots live in [reprs]/[fps] below [n]; the arrays grow by
   doubling. The arena belongs to one engine, which serves one caller at
   a time, so nothing here is synchronized. A frozen arena (a published
   snapshot's) rejects every mutation, which is what keeps a snapshot's
   docsets immutable. *)
type t = {
  mutable reprs : repr array;
  mutable fps : int array;
  mutable n : int;
  mutable frozen : bool;
  intern_tbl : (int, id list ref) Hashtbl.t;  (* fingerprint -> candidate ids *)
  op_memo : (int * id * id, id) Hashtbl.t;
  count_memo : (id * id, int) Hashtbl.t;  (* normalized pair -> |a inter b| *)
  mutable bytes : int;
  mutable dense_count : int;
  mutable sparse_count : int;
  mutable intern_requests : int;
  mutable dedup_hits : int;
  mutable memo_hits : int;
}

exception Frozen

let empty_id = 0

(* Process-wide monotonic counters; per-arena levels live in [stats] and
   are published as gauges by whoever owns the live arenas (the engine). *)
let interned_counter = Metrics.counter "bionav_docset_interned_sets_total"
let dedup_counter = Metrics.counter "bionav_docset_dedup_hits_total"
let memo_counter = Metrics.counter "bionav_docset_memo_hits_total"
let dense_counter = Metrics.counter "bionav_docset_dense_sets_total"
let sparse_counter = Metrics.counter "bionav_docset_sparse_sets_total"

let word_bits = 32

let fp_seed = 0x1505

let fp_prime = 0x100000001b3

let fingerprint_of_array a =
  Array.fold_left (fun h x -> (h lxor x) * fp_prime land max_int) fp_seed a

let create () =
  let reprs = Array.make 16 (Sparse [||]) in
  let fps = Array.make 16 0 in
  reprs.(0) <- Sparse [||];
  fps.(0) <- fingerprint_of_array [||];
  let t =
    {
      reprs;
      fps;
      n = 1;
      frozen = false;
      intern_tbl = Hashtbl.create 64;
      op_memo = Hashtbl.create 128;
      count_memo = Hashtbl.create 128;
      bytes = 0;
      dense_count = 0;
      sparse_count = 0;
      intern_requests = 0;
      dedup_hits = 0;
      memo_hits = 0;
    }
  in
  (* The empty set is pre-interned as id 0 without counting as a request. *)
  Hashtbl.replace t.intern_tbl fps.(0) (ref [ 0 ]);
  t.sparse_count <- t.sparse_count + 1;
  t

(* --- representation helpers ------------------------------------------- *)

let repr_cardinal = function Sparse a -> Array.length a | Dense d -> d.card

let repr_bytes = function
  | Sparse a -> (8 * Array.length a) + 24
  | Dense d -> (8 * Array.length d.words) + 40

let repr_iter r f =
  match r with
  | Sparse a -> Array.iter f a
  | Dense { base; words; _ } ->
      Array.iteri
        (fun wi word ->
          let w = ref word in
          while !w <> 0 do
            let b = !w land - !w in
            f (base + (word_bits * wi) + Bits.popcount (b - 1));
            w := !w land lnot b
          done)
        words

let repr_to_array r =
  match r with
  | Sparse a -> Array.copy a
  | Dense d ->
      let out = Array.make d.card 0 in
      let k = ref 0 in
      repr_iter r (fun x ->
          out.(!k) <- x;
          incr k);
      out

let repr_mem r x =
  match r with
  | Sparse a ->
      let lo = ref 0 and hi = ref (Array.length a - 1) in
      let found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) = x then found := true
        else if a.(mid) < x then lo := mid + 1
        else hi := mid - 1
      done;
      !found
  | Dense { base; words; _ } ->
      let idx = x - base in
      idx >= 0
      && idx < word_bits * Array.length words
      && words.(idx / word_bits) land (1 lsl (idx mod word_bits)) <> 0

(* Structural equality between an interned representation and a candidate
   sorted array, allocation-free. *)
let repr_equal_array r a =
  match r with
  | Sparse b ->
      Array.length a = Array.length b
      &&
      let ok = ref true in
      for i = 0 to Array.length a - 1 do
        if a.(i) <> b.(i) then ok := false
      done;
      !ok
  | Dense d ->
      Array.length a = d.card && Array.for_all (fun x -> repr_mem r x) a

(* Pack a sorted strictly-increasing array into the denser of the two
   representations. Negative elements force the sorted array. *)
let pack a =
  let n = Array.length a in
  if n = 0 then Sparse [||]
  else begin
    let lo = a.(0) and hi = a.(n - 1) in
    if lo < 0 then Sparse a
    else begin
      let base = lo / word_bits * word_bits in
      let n_words = ((hi - base) / word_bits) + 1 in
      (* The bitset wins when its word count (plus header) undercuts the
         element count: density above ~1/32 across the span. *)
      if n_words + 4 >= n then Sparse a
      else begin
        let words = Array.make n_words 0 in
        Array.iter
          (fun x ->
            let idx = x - base in
            words.(idx / word_bits) <-
              words.(idx / word_bits) lor (1 lsl (idx mod word_bits)))
          a;
        Dense { base; words; card = n }
      end
    end
  end

(* --- read-side access ---------------------------------------------------- *)

let check_id t id =
  if id < 0 || id >= t.n then invalid_arg (Printf.sprintf "Docset_arena: unknown id %d" id)

let get_repr t id = t.reprs.(id)

let get_fp t id = t.fps.(id)

(* --- interning --------------------------------------------------------- *)

let grow t n =
  if n = Array.length t.reprs then begin
    let cap = 2 * n in
    let reprs = Array.make cap (Sparse [||]) in
    Array.blit t.reprs 0 reprs 0 n;
    t.reprs <- reprs;
    let fps = Array.make cap 0 in
    Array.blit t.fps 0 fps 0 n;
    t.fps <- fps
  end

let freeze t = t.frozen <- true

let is_frozen t = t.frozen

let check_live t = if t.frozen then raise Frozen

(* Intern the set with fingerprint [fp]: [same] tests an existing slot's
   representation for equality, [repr] builds the representation of a
   new slot. *)
let intern_with t fp ~same ~repr =
  check_live t;
  t.intern_requests <- t.intern_requests + 1;
  Metrics.incr interned_counter;
  let bucket =
    match Hashtbl.find_opt t.intern_tbl fp with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add t.intern_tbl fp b;
        b
  in
  match List.find_opt (fun id -> same (get_repr t id)) !bucket with
  | Some id ->
      t.dedup_hits <- t.dedup_hits + 1;
      Metrics.incr dedup_counter;
      id
  | None ->
      let id = t.n in
      grow t id;
      let r = repr () in
      t.reprs.(id) <- r;
      t.fps.(id) <- fp;
      t.n <- id + 1;
      bucket := id :: !bucket;
      t.bytes <- t.bytes + repr_bytes r;
      (match r with
      | Dense _ ->
          t.dense_count <- t.dense_count + 1;
          Metrics.incr dense_counter
      | Sparse _ ->
          t.sparse_count <- t.sparse_count + 1;
          Metrics.incr sparse_counter);
      id

(* The empty set needs no special case: its pre-interned bucket answers. *)
let intern_unchecked t a =
  intern_with t (fingerprint_of_array a)
    ~same:(fun r -> repr_equal_array r a)
    ~repr:(fun () -> pack a)

(* Packing is deterministic in the content, so equal sets have equal
   representations. *)
let repr_equal a b =
  match (a, b) with
  | Sparse x, Sparse y -> x == y || x = y
  | Dense x, Dense y ->
      x.base = y.base && x.card = y.card && (x.words == y.words || x.words = y.words)
  | Sparse _, Dense _ | Dense _, Sparse _ -> false

let import t ~src id =
  check_id src id;
  let r = get_repr src id in
  intern_with t (get_fp src id) ~same:(repr_equal r) ~repr:(fun () -> r)

let intern t a =
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then
      invalid_arg "Docset_arena.intern: array must be sorted strictly increasing"
  done;
  intern_unchecked t (Array.copy a)

(* --- accessors --------------------------------------------------------- *)

let cardinal t id =
  check_id t id;
  repr_cardinal (get_repr t id)

let fingerprint t id =
  check_id t id;
  get_fp t id

let mem t id x =
  check_id t id;
  repr_mem (get_repr t id) x

let to_array t id =
  check_id t id;
  repr_to_array (get_repr t id)

let iter t id f =
  check_id t id;
  repr_iter (get_repr t id) f

let fold t id f init =
  check_id t id;
  let acc = ref init in
  repr_iter (get_repr t id) (fun x -> acc := f x !acc);
  !acc

let choose t id =
  check_id t id;
  match get_repr t id with
  | Sparse [||] -> raise Not_found
  | Sparse a -> a.(0)
  | Dense { base; words; _ } ->
      let rec first wi =
        if wi = Array.length words then raise Not_found
        else if words.(wi) = 0 then first (wi + 1)
        else base + (word_bits * wi) + Bits.popcount ((words.(wi) land -words.(wi)) - 1)
      in
      first 0

let max_elt t id =
  check_id t id;
  match get_repr t id with
  | Sparse [||] -> raise Not_found
  | Sparse a -> a.(Array.length a - 1)
  | Dense { base; words; _ } ->
      (* Packing ends the bitset at the word holding the largest element. *)
      let last = Array.length words - 1 in
      let w = words.(last) and top = ref 0 in
      while w lsr (!top + 1) <> 0 do
        incr top
      done;
      base + (word_bits * last) + !top

let equal_array t id a =
  check_id t id;
  repr_equal_array (get_repr t id) a

(* --- set algebra ------------------------------------------------------- *)

(* Merge two sorted arrays; [keep_left_only]/[keep_both]/[keep_right_only]
   select union, intersection or difference. *)
let merge ~left ~both ~right a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let push x =
    out.(!k) <- x;
    incr k
  in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      if left then push x;
      incr i
    end
    else if y < x then begin
      if right then push y;
      incr j
    end
    else begin
      if both then push x;
      incr i;
      incr j
    end
  done;
  if left then
    while !i < na do
      push a.(!i);
      incr i
    done;
  if right then
    while !j < nb do
      push b.(!j);
      incr j
    done;
  if !k = na + nb then out else Array.sub out 0 !k

let op_union = 0
let op_inter = 1
let op_diff = 2

let binop t op a b =
  check_live t;
  check_id t a;
  check_id t b;
  (* Union and intersection are commutative: normalize the key. *)
  let ka, kb = if op <> op_diff && a > b then (b, a) else (a, b) in
  match Hashtbl.find_opt t.op_memo (op, ka, kb) with
  | Some r ->
      t.memo_hits <- t.memo_hits + 1;
      Metrics.incr memo_counter;
      r
  | None ->
      let aa = repr_to_array (get_repr t a) and ba = repr_to_array (get_repr t b) in
      let out =
        if op = op_union then merge ~left:true ~both:true ~right:true aa ba
        else if op = op_inter then merge ~left:false ~both:true ~right:false aa ba
        else merge ~left:true ~both:false ~right:false aa ba
      in
      let r = intern_unchecked t out in
      Hashtbl.add t.op_memo (op, ka, kb) r;
      r

let union t a b =
  if a = empty_id then b else if b = empty_id then a else if a = b then a else binop t op_union a b

let inter t a b =
  if a = empty_id || b = empty_id then empty_id
  else if a = b then a
  else binop t op_inter a b

let diff t a b = if a = empty_id || a = b then empty_id else if b = empty_id then a else binop t op_diff a b

let union_many t ids =
  let ids = List.sort_uniq Int.compare ids in
  List.fold_left (fun acc id -> union t acc id) empty_id ids

(* Allocation-free intersection cardinality: the cost model's hot loop.
   Dense/dense pairs fold SWAR popcounts over the overlapping word range;
   sparse/dense probes the bitset per element; sparse/sparse merge-counts. *)
let inter_cardinal_raw t a b =
  match (get_repr t a, get_repr t b) with
  | Sparse aa, Sparse ba ->
      let na = Array.length aa and nb = Array.length ba in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < na && !j < nb do
        let x = aa.(!i) and y = ba.(!j) in
        if x < y then incr i
        else if y < x then incr j
        else begin
          incr i;
          incr j;
          incr k
        end
      done;
      !k
  | Dense da, Dense db ->
      let lo = max da.base db.base in
      let hi =
        min
          (da.base + (word_bits * Array.length da.words))
          (db.base + (word_bits * Array.length db.words))
      in
      let count = ref 0 in
      let w = ref lo in
      while !w < hi do
        let wa = da.words.((!w - da.base) / word_bits)
        and wb = db.words.((!w - db.base) / word_bits) in
        count := !count + Bits.popcount (wa land wb);
        w := !w + word_bits
      done;
      !count
  | Sparse aa, (Dense _ as d) ->
      let count = ref 0 in
      Array.iter (fun x -> if repr_mem d x then incr count) aa;
      !count
  | (Dense _ as d), Sparse ba ->
      let count = ref 0 in
      Array.iter (fun x -> if repr_mem d x then incr count) ba;
      !count

let inter_cardinal t a b =
  check_id t a;
  check_id t b;
  if a = empty_id || b = empty_id then 0
  else if a = b then repr_cardinal (get_repr t a)
  else if t.frozen then begin
    (* Frozen arena: the memo is read, never written; misses recompute. *)
    let ka, kb = if a > b then (b, a) else (a, b) in
    match Hashtbl.find_opt t.count_memo (ka, kb) with
    | Some c -> c
    | None -> inter_cardinal_raw t a b
  end
  else begin
    (* The live "read" path mutates: memo insertion and hit stats. *)
    let ka, kb = if a > b then (b, a) else (a, b) in
    match Hashtbl.find_opt t.count_memo (ka, kb) with
    | Some c ->
        t.memo_hits <- t.memo_hits + 1;
        Metrics.incr memo_counter;
        c
    | None ->
        let c = inter_cardinal_raw t a b in
        Hashtbl.add t.count_memo (ka, kb) c;
        c
  end

let union_cardinal t a b = cardinal t a + cardinal t b - inter_cardinal t a b

let subset t a b = inter_cardinal t a b = cardinal t a

(* --- observability ----------------------------------------------------- *)

type stats = {
  sets : int;
  bytes : int;
  dense : int;
  sparse : int;
  intern_requests : int;
  dedup_hits : int;
  memo_hits : int;
}

let stats t =
  {
    sets = t.n;
    bytes = t.bytes;
    dense = t.dense_count;
    sparse = t.sparse_count;
    intern_requests = t.intern_requests;
    dedup_hits = t.dedup_hits;
    memo_hits = t.memo_hits;
  }

let dedup_hit_rate (t : t) =
  if t.intern_requests = 0 then 0.
  else float_of_int t.dedup_hits /. float_of_int t.intern_requests
