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
