open Bionav_util

type t = { parts : int; full : int; covered : int; within : int array }

let max_parts = 16

(* Per-domain scratch: a 16-bit signature per result id, all zero
   between passes, plus the byte offsets a pass touched. Both only grow. *)
type scratch = { mutable sigs : Bytes.t; mutable touched : int array }

let scratch = Domain.DLS.new_key (fun () -> { sigs = Bytes.empty; touched = [||] })

(* Ids below this always take the scratch (2 MiB of it); beyond it, only
   up to 16 ids per (node, result) pair of the pass. *)
let dense_floor = 1 lsl 20

exception Scattered

(* Unchecked 16-bit access; every offset is checked against the scratch
   size first. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* ORs each result's signature into the scratch, growing it on the way
   up to [cap] ids, then counts the touched entries per signature and
   clears them. Returns |R|, or [None] (scratch cleared) on an id
   outside [\[0, cap)]. *)
let dense_pass ~cap ~pairs ~n ~set ~part counts =
  let st = Domain.DLS.get scratch in
  if Array.length st.touched < pairs then
    st.touched <- Array.make (max pairs (2 * Array.length st.touched)) 0;
  let touched = st.touched and k = ref 0 in
  let sigs = ref st.sigs in
  (* Room for id [x], at least doubling. *)
  let grow x =
    if x < 0 || x >= cap then raise_notrace Scattered;
    let ids = Bytes.length !sigs / 2 in
    let bigger = Bytes.make (2 * min cap (max (x + 1) (2 * ids))) '\000' in
    Bytes.blit !sigs 0 bigger 0 (2 * ids);
    sigs := bigger
  in

  let finish count =
    for j = 0 to !k - 1 do
      let i = touched.(j) in
      if count then begin
        let s = get16 !sigs i in
        counts.(s) <- counts.(s) + 1
      end;
      set16 !sigs i 0
    done;
    st.sigs <- !sigs
  in
  match
    for v = 0 to n - 1 do
      let bit = 1 lsl part v in
      Docset.iter
        (fun x ->
          if x < 0 || x >= Bytes.length !sigs / 2 then grow x;
          let sigs = !sigs and i = 2 * x in
          let s = get16 sigs i in
          if s = 0 then begin
            touched.(!k) <- i;
            incr k
          end;
          set16 sigs i (s lor bit))
        (set v)
    done
  with
  | () ->
      finish true;
      Some !k
  | exception Scattered ->
      finish false;
      None

(* The fallback for scattered ids: sort the (result, group bit) pairs
   and OR each run of equal results. *)
let sorted_pass ~pairs ~n ~set ~part counts =
  let a = Array.make pairs (0, 0) and k = ref 0 in
  for v = 0 to n - 1 do
    let bit = 1 lsl part v in
    Docset.iter
      (fun x ->
        a.(!k) <- (x, bit);
        incr k)
      (set v)
  done;
  Array.sort (fun (x, _) (y, _) -> Int.compare x y) a;
  let covered = ref 0 and i = ref 0 in
  while !i < pairs do
    let x = fst a.(!i) and s = ref 0 in
    while !i < pairs && fst a.(!i) = x do
      s := !s lor snd a.(!i);
      incr i
    done;
    counts.(!s) <- counts.(!s) + 1;
    incr covered
  done;
  !covered

let of_sets ~n ~set ~part ~parts =
  if parts < 1 || parts > max_parts then
    invalid_arg (Printf.sprintf "Signature.of_sets: %d parts (max %d)" parts max_parts);
  (* Every argument is checked before the scratch is touched, so a
     rejected call leaves it clear. *)
  let pairs = ref 0 in
  for v = 0 to n - 1 do
    let p = part v in
    if p < 0 || p >= parts then
      invalid_arg (Printf.sprintf "Signature.of_sets: node %d in part %d of %d" v p parts);
    pairs := !pairs + Docset.cardinal (set v)
  done;
  let pairs = !pairs in
  let full = (1 lsl parts) - 1 in
  let within = Array.make (full + 1) 0 in
  let covered =
    match dense_pass ~cap:(max dense_floor (16 * pairs)) ~pairs ~n ~set ~part within with
    | Some covered -> covered
    | None -> sorted_pass ~pairs ~n ~set ~part within
  in
  for b = 0 to parts - 1 do
    let bit = 1 lsl b in
    for s = 0 to full do
      if s land bit <> 0 then within.(s) <- within.(s) + within.(s lxor bit)
    done
  done;
  { parts; full; covered; within }

let parts t = t.parts
let covered t = t.covered

(* A result lies outside [mask]'s union exactly when every group holding
   it lies outside [mask]. *)
let distinct t mask = t.covered - t.within.(t.full land lnot mask)

let count t s = t.covered - t.within.(t.full lxor (1 lsl s))
