type t = int array
(* Invariant: strictly increasing. *)

let check_sorted a =
  let n = Array.length a in
  let rec from i = i >= n || (a.(i - 1) < a.(i) && from (i + 1)) in
  from 1

let empty = [||]

let is_empty t = Array.length t = 0

let singleton x = [| x |]

let dedup_sorted a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n a.(0) in
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> out.(!k - 1) then begin
        out.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then out else Array.sub out 0 !k
  end

let of_array a =
  if check_sorted a then Array.copy a
  else begin
    let b = Array.copy a in
    Array.sort Int.compare b;
    dedup_sorted b
  end

let of_list l = of_array (Array.of_list l)

let of_sorted_array_unchecked a =
  assert (check_sorted a);
  a

let cardinal = Array.length

let mem x t =
  let lo = ref 0 and hi = ref (Array.length t - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) = x then found := true
    else if t.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin out.(!k) <- x; incr i end
      else if y < x then begin out.(!k) <- y; incr j end
      else begin out.(!k) <- x; incr i; incr j end;
      incr k
    done;
    while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < nb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = na + nb then out else Array.sub out 0 !k
  end

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin out.(!k) <- x; incr i; incr j; incr k end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let inter_cardinal a b =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin incr i; incr j; incr k end
  done;
  !k

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin out.(!k) <- x; incr i; incr k end
    else if y < x then incr j
    else begin incr i; incr j end
  done;
  while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
  if !k = na then out else Array.sub out 0 !k

let add x t = if mem x t then t else union (singleton x) t

let remove x t = if mem x t then diff t (singleton x) else t

(* Heap-based k-way merge: a binary min-heap of source heads emits the
   global minimum per step, so total work is O(N log k) with one output
   pass and no intermediate merge arrays. The heap is two int arrays —
   head value and source index — so a step allocates nothing. *)
let union_many_heap sets =
  let srcs = Array.of_list sets in
  let k = Array.length srcs in
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 srcs in
  (* [hv.(i)]/[hs.(i)]: head value and source of heap slot i; [idx.(s)]:
     cursor into source s. Invariant: every live source appears exactly
     once. *)
  let hv = Array.make k 0 and hs = Array.make k 0 in
  let idx = Array.make k 0 in
  let hn = ref 0 in
  (* Move the entry (v, s) down from slot i to where it belongs. *)
  let rec sift_down i v s =
    let l = (2 * i) + 1 in
    if l >= !hn then begin
      hv.(i) <- v;
      hs.(i) <- s
    end
    else begin
      let r = l + 1 in
      let m = if r < !hn && hv.(r) < hv.(l) then r else l in
      if hv.(m) < v then begin
        hv.(i) <- hv.(m);
        hs.(i) <- hs.(m);
        sift_down m v s
      end
      else begin
        hv.(i) <- v;
        hs.(i) <- s
      end
    end
  in
  let rec sift_up i v s =
    let p = (i - 1) / 2 in
    if i > 0 && v < hv.(p) then begin
      hv.(i) <- hv.(p);
      hs.(i) <- hs.(p);
      sift_up p v s
    end
    else begin
      hv.(i) <- v;
      hs.(i) <- s
    end
  in
  Array.iteri
    (fun s src ->
      if Array.length src > 0 then begin
        incr hn;
        sift_up (!hn - 1) src.(0) s
      end)
    srcs;
  let out = Array.make total 0 in
  let n = ref 0 in
  while !hn > 0 do
    let v = hv.(0) and s = hs.(0) in
    if !n = 0 || out.(!n - 1) <> v then begin
      out.(!n) <- v;
      incr n
    end;
    let c = idx.(s) + 1 in
    idx.(s) <- c;
    if c < Array.length srcs.(s) then sift_down 0 srcs.(s).(c) s
    else begin
      decr hn;
      if !hn > 0 then sift_down 0 hv.(!hn) hs.(!hn)
    end
  done;
  if !n = total then out else Array.sub out 0 !n

let union_many sets =
  (* Pairwise balanced merging is cache-friendlier for few operands; the
     heap wins once the merge tree gets deep. *)
  let k = List.length sets in
  if k > 8 then union_many_heap sets
  else
    let rec round = function
      | [] -> empty
      | [ s ] -> s
      | sets ->
          let rec pair acc = function
            | [] -> acc
            | [ s ] -> s :: acc
            | a :: b :: rest -> pair (union a b :: acc) rest
          in
          round (pair [] sets)
    in
    round sets

let subset a b = inter_cardinal a b = cardinal a

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let elements t = Array.to_list t

let to_array t = Array.copy t

let iter f t = Array.iter f t

let fold f t init = Array.fold_left (fun acc x -> f x acc) init t

let choose t = if is_empty t then raise Not_found else t.(0)

let max_elt t = if is_empty t then raise Not_found else t.(Array.length t - 1)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       Format.pp_print_int)
    (elements t)
