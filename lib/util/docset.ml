let word_bits = 32

(* The density split follows the hybrid posting-list design from the IR
   literature: a set whose packed bitset over its own span is smaller than
   its sorted array is stored as the bitset (32 payload bits per word so
   popcounts stay in Bits.pop32 territory), everything else as the sorted
   array. The choice is deterministic in the content, so equal sets always
   pack identically and equality compares representations directly. *)
type t =
  | Sparse of Intset.t
  | Dense of { base : int; words : int array; card : int }
      (* bit [i] of [words.(w)] set <=> [base + 32*w + i] is a member;
         [base] is a multiple of 32, elements are non-negative, and the
         first and last words are non-zero *)

let empty = Sparse Intset.empty

let is_empty = function Sparse s -> Intset.is_empty s | Dense _ -> false

(* The multiple of 32 at or below [x], negative [x] included. *)
let align x = x land lnot (word_bits - 1)

let set_bit words i =
  let w = i / word_bits in
  words.(w) <- words.(w) lor (1 lsl (i land (word_bits - 1)))

let iter_word f base w word =
  let bits = ref word in
  while !bits <> 0 do
    f (base + (w * word_bits) + Bits.lowest_bit !bits);
    bits := !bits land (!bits - 1)
  done

(* The [card] members held in [words.(first..last)], ascending. *)
let extract base words first last card =
  let out = Array.make card 0 and k = ref 0 in
  for w = first to last do
    let bits = ref words.(w) in
    while !bits <> 0 do
      out.(!k) <- base + (w * word_bits) + Bits.lowest_bit !bits;
      incr k;
      bits := !bits land (!bits - 1)
    done
  done;
  out

(* --- construction -------------------------------------------------------- *)

(* Pack a sorted set into the denser representation: the bitset wins when
   its word count (plus header) undercuts the element count, i.e. density
   above ~1/32 across the span. Negative elements force the sorted array. *)
let of_intset s =
  let n = Intset.cardinal s in
  if n = 0 then empty
  else begin
    let lo = Intset.choose s and hi = Intset.max_elt s in
    let base = align lo in
    let n_words = ((hi - base) / word_bits) + 1 in
    if lo < 0 || n_words + 4 >= n then Sparse s
    else begin
      let words = Array.make n_words 0 in
      Intset.iter (fun x -> set_bit words (x - base)) s;
      Dense { base; words; card = n }
    end
  end

(* The set held in [words], 32 bits per word from the word-aligned [base]
   up, packed by the same rule as [of_intset]. [words] may be adopted. *)
let of_bitmap base words =
  let nw = Array.length words in
  let first = ref 0 in
  while !first < nw && words.(!first) = 0 do
    incr first
  done;
  if !first = nw then empty
  else begin
    let last = ref (nw - 1) in
    while words.(!last) = 0 do
      decr last
    done;
    let card = ref 0 in
    for w = !first to !last do
      card := !card + Bits.popcount words.(w)
    done;
    let lo = base + (!first * word_bits) and n_words = !last - !first + 1 in
    if lo >= 0 && n_words + 4 < !card then
      let words = if n_words = nw then words else Array.sub words !first n_words in
      Dense { base = lo; words; card = !card }
    else Sparse (Intset.of_sorted_array_unchecked (extract base words !first !last !card))
  end

let of_sorted_array_unchecked a = of_intset (Intset.of_sorted_array_unchecked a)
let of_array a = of_intset (Intset.of_array a)
let of_list l = of_intset (Intset.of_list l)
let singleton x = Sparse (Intset.singleton x)

(* --- queries ------------------------------------------------------------- *)

let cardinal = function Sparse s -> Intset.cardinal s | Dense d -> d.card

let mem x = function
  | Sparse s -> Intset.mem x s
  | Dense { base; words; _ } ->
      let i = x - base in
      i >= 0
      && i < word_bits * Array.length words
      && words.(i / word_bits) land (1 lsl (i land (word_bits - 1))) <> 0

let iter f = function
  | Sparse s -> Intset.iter f s
  | Dense { base; words; _ } -> Array.iteri (iter_word f base) words

let fold f s init =
  let acc = ref init in
  iter (fun x -> acc := f x !acc) s;
  !acc

let elements s = fold (fun x acc -> x :: acc) s [] |> List.rev

let to_array = function
  | Sparse s -> Intset.to_array s
  | Dense { base; words; card } -> extract base words 0 (Array.length words - 1) card

let to_intset = function
  | Sparse s -> s
  | Dense _ as s -> Intset.of_sorted_array_unchecked (to_array s)

let choose = function
  | Sparse s -> Intset.choose s
  | Dense { base; words; _ } -> base + Bits.lowest_bit words.(0)

let max_elt = function
  | Sparse s -> Intset.max_elt s
  | Dense { base; words; _ } ->
      let last = Array.length words - 1 in
      let w = words.(last) and top = ref 0 in
      while w lsr (!top + 1) <> 0 do
        incr top
      done;
      base + (word_bits * last) + !top

let fp_seed = 0x1505

let fp_prime = 0x100000001b3

let fp_step h x = (h lxor x) * fp_prime land max_int

(* Plan-cache lookups fingerprint and verify a component's member set on
   every EXPAND, and member sets are mostly dense: the bitset cases walk
   the words directly. *)
let fingerprint = function
  | Sparse s -> Intset.fold (fun x h -> fp_step h x) s fp_seed
  | Dense { base; words; _ } ->
      let h = ref fp_seed in
      for w = 0 to Array.length words - 1 do
        let bits = ref words.(w) in
        while !bits <> 0 do
          h := fp_step !h (base + (w * word_bits) + Bits.lowest_bit !bits);
          bits := !bits land (!bits - 1)
        done
      done;
      !h

let equal a b =
  a == b
  ||
  match (a, b) with
  | Sparse x, Sparse y -> Intset.equal x y
  | Dense x, Dense y -> x.card = y.card && x.base = y.base && x.words = y.words
  | Sparse _, Dense _ | Dense _, Sparse _ -> false

let compare a b =
  if a == b then 0
  else
    let c = Int.compare (cardinal a) (cardinal b) in
    if c <> 0 then c else Intset.compare (to_intset a) (to_intset b)

let equal_array s a =
  let n = Array.length a in
  cardinal s = n
  &&
  match s with
  | Sparse x ->
      let ok = ref true and i = ref 0 in
      Intset.iter
        (fun v ->
          if a.(!i) <> v then ok := false;
          incr i)
        x;
      !ok
  | Dense _ ->
      (* [a] is strictly increasing and as large as [s]: equal iff every
         element is a member. *)
      let ok = ref true and i = ref 0 in
      while !ok && !i < n do
        ok := mem a.(!i) s;
        incr i
      done;
      !ok

let bytes = function
  | Sparse s -> (8 * Intset.cardinal s) + 24
  | Dense d -> (8 * Array.length d.words) + 40

(* --- set algebra ---------------------------------------------------------- *)

(* The elements of [s] whose membership in [d] is [keep]. *)
let filter_mem keep s d =
  let out = Array.make (Intset.cardinal s) 0 and k = ref 0 in
  Intset.iter
    (fun x ->
      if mem x d = keep then begin
        out.(!k) <- x;
        incr k
      end)
    s;
  of_sorted_array_unchecked (if !k = Array.length out then out else Array.sub out 0 !k)

let union_many sets =
  match List.filter (fun s -> not (is_empty s)) sets with
  | [] -> empty
  | [ s ] -> s
  | first :: _ as live ->
      let total = ref 0 and lo = ref max_int and hi = ref min_int and largest = ref first in
      List.iter
        (fun s ->
          let n = cardinal s in
          total := !total + n;
          lo := min !lo (choose s);
          hi := max !hi (max_elt s);
          if n > cardinal !largest then largest := s)
        live;
      let base = align !lo in
      let span = !hi - base in
      (* A bitmap over the span when it is no larger than the operands
         (span < 0 is overflow on extreme elements); otherwise the k-way
         merge over sorted arrays. *)
      let u =
        if span >= 0 && span / word_bits < !total then begin
          let words = Array.make ((span / word_bits) + 1) 0 in
          List.iter
            (function
              | Sparse s -> Intset.iter (fun x -> set_bit words (x - base)) s
              | Dense d ->
                  let off = (d.base - base) / word_bits in
                  Array.iteri (fun w word -> words.(off + w) <- words.(off + w) lor word) d.words)
            live;
          of_bitmap base words
        end
        else of_intset (Intset.union_many (List.map to_intset live))
      in
      (* A union no bigger than an operand is that operand: share it. *)
      if cardinal u = cardinal !largest then !largest else u

let union a b = union_many [ a; b ]

let inter a b =
  match (a, b) with
  | Sparse x, Sparse y -> of_intset (Intset.inter x y)
  | Sparse x, (Dense _ as d) | (Dense _ as d), Sparse x -> filter_mem true x d
  | Dense x, Dense y ->
      let lo = max x.base y.base in
      let hi =
        min
          (x.base + (word_bits * Array.length x.words))
          (y.base + (word_bits * Array.length y.words))
      in
      if hi <= lo then empty
      else
        let xo = (lo - x.base) / word_bits and yo = (lo - y.base) / word_bits in
        of_bitmap lo
          (Array.init ((hi - lo) / word_bits) (fun w ->
               x.words.(xo + w) land y.words.(yo + w)))

let diff a b =
  if is_empty a || is_empty b then a
  else
    match (a, b) with
    | Sparse x, Sparse y -> of_intset (Intset.diff x y)
    | Sparse x, (Dense _ as d) -> filter_mem false x d
    | Dense x, Sparse y ->
        let words = Array.copy x.words in
        let limit = word_bits * Array.length words in
        Intset.iter
          (fun v ->
            let i = v - x.base in
            if i >= 0 && i < limit then
              words.(i / word_bits) <-
                words.(i / word_bits) land lnot (1 lsl (i land (word_bits - 1))))
          y;
        of_bitmap x.base words
    | Dense x, Dense y ->
        let words = Array.copy x.words in
        Array.iteri
          (fun w word ->
            let yw = w + ((x.base - y.base) / word_bits) in
            if yw >= 0 && yw < Array.length y.words then
              words.(w) <- word land lnot y.words.(yw))
          x.words;
        of_bitmap x.base words

(* Dense/dense pairs fold SWAR popcounts over the overlapping word range;
   sparse/dense probes the bitset per element; sparse/sparse merge-counts. *)
let inter_cardinal a b =
  match (a, b) with
  | Sparse x, Sparse y -> Intset.inter_cardinal x y
  | Sparse x, (Dense _ as d) | (Dense _ as d), Sparse x ->
      Intset.fold (fun v acc -> if mem v d then acc + 1 else acc) x 0
  | Dense x, Dense y ->
      let lo = max x.base y.base in
      let hi =
        min
          (x.base + (word_bits * Array.length x.words))
          (y.base + (word_bits * Array.length y.words))
      in
      let count = ref 0 and i = ref lo in
      while !i < hi do
        count :=
          !count
          + Bits.popcount
              (x.words.((!i - x.base) / word_bits) land y.words.((!i - y.base) / word_bits));
        i := !i + word_bits
      done;
      !count

let union_cardinal a b = cardinal a + cardinal b - inter_cardinal a b
let subset a b = inter_cardinal a b = cardinal a

let pp fmt s =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun x ->
      if !first then first := false else Format.fprintf fmt ",@ ";
      Format.pp_print_int fmt x)
    s;
  Format.fprintf fmt "}"
