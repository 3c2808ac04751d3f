module A = Docset_arena

type t = { arena : A.t; id : A.id }

let arena s = s.arena
let id s = s.id

(* One process-wide arena backs [empty] and any construction that does not
   name an arena. Sets built here migrate lazily: binary operations rebase
   into the left operand's arena, so shared-arena consumers are unaffected. *)
let shared = A.create ()

let empty = { arena = shared; id = A.empty_id }

let is_empty s = s.id = A.empty_id

(* --- construction -------------------------------------------------------- *)

let sort_dedup a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k
  end

let of_sorted_array_unchecked_in arena a = { arena; id = A.intern_unchecked arena a }
let of_array_in arena a = of_sorted_array_unchecked_in arena (sort_dedup a)
let of_list_in arena l = of_array_in arena (Array.of_list l)
let singleton_in arena x = of_sorted_array_unchecked_in arena [| x |]
let of_intset_in arena s = of_sorted_array_unchecked_in arena (Intset.to_array s)

let of_sorted_array_unchecked a = of_sorted_array_unchecked_in (A.create ()) a
let of_array a = of_array_in (A.create ()) a
let of_list l = of_list_in (A.create ()) l
let singleton x = singleton_in (A.create ()) x
let of_intset s = of_intset_in (A.create ()) s

let in_arena arena s =
  if s.arena == arena then s
  else { arena; id = A.import arena ~src:s.arena s.id }

let consolidate sets =
  let n = Array.length sets in
  if n = 0 then sets
  else begin
    let target = ref None in
    Array.iter
      (fun s -> if !target = None && not (is_empty s) then target := Some s.arena)
      sets;
    match !target with
    | None -> sets
    | Some arena -> Array.map (in_arena arena) sets
  end

(* --- queries ------------------------------------------------------------- *)

let cardinal s = A.cardinal s.arena s.id
let fingerprint s = A.fingerprint s.arena s.id
let mem x s = A.mem s.arena s.id x
let choose s = A.choose s.arena s.id
let max_elt s = A.max_elt s.arena s.id
let to_array s = A.to_array s.arena s.id
let to_intset s = Intset.of_sorted_array_unchecked (to_array s)
let iter f s = A.iter s.arena s.id f
let fold f s init = A.fold s.arena s.id f init
let elements s = fold (fun x acc -> x :: acc) s [] |> List.rev
let equal_array s a = A.equal_array s.arena s.id a

let equal a b =
  if a.arena == b.arena then a.id = b.id
  else
    fingerprint a = fingerprint b
    && cardinal a = cardinal b
    && A.equal_array a.arena a.id (to_array b)

let compare a b =
  if a.arena == b.arena && a.id = b.id then 0
  else
    let c = Int.compare (fingerprint a) (fingerprint b) in
    if c <> 0 then c
    else
      let aa = to_array a and ba = to_array b in
      let c = Int.compare (Array.length aa) (Array.length ba) in
      if c <> 0 then c
      else begin
        let r = ref 0 and i = ref 0 in
        while !r = 0 && !i < Array.length aa do
          r := Int.compare aa.(!i) ba.(!i);
          incr i
        done;
        !r
      end

(* --- set algebra ---------------------------------------------------------- *)

let binop f a b =
  let b = in_arena a.arena b in
  { arena = a.arena; id = f a.arena a.id b.id }

let union a b = if is_empty a then b else if is_empty b then a else binop A.union a b
let inter a b = if is_empty a || is_empty b then empty else binop A.inter a b
let diff a b = if is_empty a then empty else if is_empty b then a else binop A.diff a b

let union_many sets =
  match List.filter (fun s -> not (is_empty s)) sets with
  | [] -> empty
  | first :: _ as live ->
      let arena = first.arena in
      let ids = List.map (fun s -> (in_arena arena s).id) live in
      { arena; id = A.union_many arena ids }

let inter_cardinal a b =
  if is_empty a || is_empty b then 0
  else
    let b = in_arena a.arena b in
    A.inter_cardinal a.arena a.id b.id

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
