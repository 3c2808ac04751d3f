(* Two distinct counts kept as differential-test oracles for the
   one-pass signature table in lib/core/signature.ml:

   - [distinct], the union-based count that the first signature table
     replaced: |L(C)| is the cardinality of the union of the mask's node
     sets;
   - [signature_table] / [merge_distinct], the table the one-pass
     signatures replaced: each result's signature comes from an m-way
     merge of the sorted node sets.

   Bits beyond the tree are ignored. *)

open Bionav_core

let members tree mask =
  List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init (Comp_tree.size tree) Fun.id)

let distinct tree mask =
  Bionav_util.Docset.cardinal (Comp_tree.distinct_of_nodes tree (members tree mask))

(* Each result in R, the union of the node sets, has a signature: the
   mask of the nodes whose set holds it. Counting results per signature
   and then summing over subsets (the zeta transform, m·2^m additions)
   gives [within.(s)], the results whose signature lies inside [s]. The
   signatures come from an m-way merge of the sorted node sets. *)
let signature_table tree =
  let m = Comp_tree.size tree in
  let sets = Array.init m (fun i -> Bionav_util.Docset.to_array (Comp_tree.results tree i)) in
  let pos = Array.make m 0 in
  let within = Array.make (1 lsl m) 0 in
  (* [live.(0 .. !n_live - 1)]: the nodes with unmerged results. *)
  let live = Array.of_list (List.filter (fun i -> sets.(i) <> [||]) (List.init m Fun.id)) in
  let n_live = ref (Array.length live) in
  let covered = ref 0 in
  while !n_live > 1 do
    let least = ref sets.(live.(0)).(pos.(live.(0))) in
    for j = 1 to !n_live - 1 do
      let i = live.(j) in
      let x = sets.(i).(pos.(i)) in
      if x < !least then least := x
    done;
    let signature = ref 0 and j = ref 0 in
    while !j < !n_live do
      let i = live.(!j) in
      let p = pos.(i) in
      if sets.(i).(p) = !least then begin
        signature := !signature lor (1 lsl i);
        pos.(i) <- p + 1;
        if p + 1 = Array.length sets.(i) then begin
          decr n_live;
          live.(!j) <- live.(!n_live)
        end
        else incr j
      end
      else incr j
    done;
    within.(!signature) <- within.(!signature) + 1;
    incr covered
  done;
  (* One node left: the rest of its set has its bit alone as signature. *)
  if !n_live = 1 then begin
    let i = live.(0) in
    let rest = Array.length sets.(i) - pos.(i) in
    within.(1 lsl i) <- within.(1 lsl i) + rest;
    covered := !covered + rest
  end;
  for b = 0 to m - 1 do
    let bit = 1 lsl b in
    for s = 0 to (1 lsl m) - 1 do
      if s land bit <> 0 then within.(s) <- within.(s) + within.(s lxor bit)
    done
  done;
  (!covered, within)

let merge_distinct tree =
  let covered, within = signature_table tree in
  let full = (1 lsl Comp_tree.size tree) - 1 in
  fun mask -> covered - within.(full land lnot mask)
