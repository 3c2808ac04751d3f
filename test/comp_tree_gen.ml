(* Random component trees for the differential properties of the
   partition and reduced-tree oracles: arbitrary shapes, empty nodes,
   equal weights and result lists that overlap across nodes. The id
   universe ranges from a handful of ids (heavy overlap, many equal
   weights) to a few thousand ids, and may start below zero. *)

open Bionav_util
open Bionav_core

type spec = { parents : int array; seed : int; universe : int; offset : int; empty_pct : int }

let print s =
  Printf.sprintf "parents=[%s] seed=%d universe=%d offset=%d empty=%d%%"
    (String.concat ";" (Array.to_list (Array.map string_of_int s.parents)))
    s.seed s.universe s.offset s.empty_pct

let gen =
  QCheck.make ~print
    QCheck.Gen.(
      int_range 1 80 >>= fun n ->
      array_size (return n) (int_range 0 max_int) >>= fun draws ->
      let parents = Array.mapi (fun i d -> if i = 0 then -1 else d mod i) draws in
      int_range 0 10_000 >>= fun seed ->
      oneofl [ 4; 16; 64; 500; 5_000 ] >>= fun universe ->
      oneofl [ 0; 0; 37; -1_000 ] >>= fun offset ->
      oneofl [ 0; 20; 60 ] >|= fun empty_pct -> { parents; seed; universe; offset; empty_pct })

let tree s =
  let rng = Rng.create s.seed in
  let n = Array.length s.parents in
  let results =
    Array.init n (fun _ ->
        if Rng.int rng 100 < s.empty_pct then Docset.empty
        else
          Docset.of_list
            (List.init (1 + Rng.int rng 12) (fun _ -> s.offset + Rng.int rng s.universe)))
  in
  (* Totals must cover each node's own results; node 0 may have none. *)
  let totals = Array.map (fun r -> Docset.cardinal r + Rng.int rng 50) results in
  let labels = Array.init n (Printf.sprintf "n%d") in
  let concepts = Array.init n (fun i -> (i * 7) + 3) in
  Comp_tree.make ~parent:s.parents ~results ~totals ~labels ~concepts ()

(* Trees of 1-16 nodes, the cost model's range, for the signature-table
   property. Each node's set is drawn against the sets before it: empty,
   a copy of an earlier set, a subset or a superset of one, a block of ids
   no other node holds, or random ids from a small universe that may
   start below zero. *)
type small = { small_parents : int array; small_seed : int }

let print_small s =
  Printf.sprintf "parents=[%s] seed=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int s.small_parents)))
    s.small_seed

let small_gen =
  QCheck.make ~print:print_small
    QCheck.Gen.(
      int_range 1 16 >>= fun n ->
      array_size (return n) (int_range 0 max_int) >>= fun draws ->
      let small_parents = Array.mapi (fun i d -> if i = 0 then -1 else d mod i) draws in
      int_range 0 10_000 >|= fun small_seed -> { small_parents; small_seed })

let small_tree s =
  let rng = Rng.create s.small_seed in
  let n = Array.length s.small_parents in
  let sets = Array.make n [] in
  let next_block = ref 1_000 in
  let random_ids () = List.init (1 + Rng.int rng 12) (fun _ -> Rng.int rng 40 - 8) in
  for i = 0 to n - 1 do
    let earlier () = sets.(Rng.int rng i) in
    let shape = if i = 0 then Rng.choice rng [| 0; 4; 5 |] else Rng.int rng 6 in
    sets.(i) <-
      (match shape with
      | 0 -> []
      | 1 -> earlier ()
      | 2 -> List.filter (fun _ -> Rng.bool rng) (earlier ())
      | 3 -> earlier () @ random_ids ()
      | 4 ->
          let base = !next_block in
          next_block := base + 100;
          List.init (1 + Rng.int rng 30) (fun j -> base + j)
      | _ -> random_ids ())
  done;
  let results = Array.map Docset.of_list sets in
  let totals = Array.map (fun r -> Docset.cardinal r + Rng.int rng 50) results in
  Comp_tree.make ~parent:s.small_parents ~results ~totals ()

(* The same tree with every id [x] moved to [x * stride]: far apart, so
   the signature pass falls back from its dense scratch to sorting. *)
let scatter ?(stride = 10_000_019) tree =
  let n = Comp_tree.size tree in
  let results =
    Array.init n (fun i ->
        Docset.of_list (List.map (fun x -> x * stride) (Docset.elements (Comp_tree.results tree i))))
  in
  Comp_tree.make
    ~parent:(Array.init n (Comp_tree.parent tree))
    ~results
    ~totals:(Array.init n (Comp_tree.total tree))
    ()
