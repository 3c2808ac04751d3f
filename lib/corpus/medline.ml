open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy

type t = {
  hierarchy : Hierarchy.t;
  citations : Citation.t array;
  postings : Intset.t array;
}

let make hierarchy citations =
  Array.iteri
    (fun i c ->
      if Citation.id c <> i then
        invalid_arg (Printf.sprintf "Medline.make: citation at index %d has id %d" i (Citation.id c)))
    citations;
  let n_concepts = Hierarchy.size hierarchy in
  let buckets = Array.make n_concepts [] in
  (* Citations are scanned in increasing id order, so each bucket is built
     already sorted (descending, reversed once at the end). *)
  Array.iter
    (fun c ->
      let id = Citation.id c in
      Intset.iter
        (fun concept ->
          if concept < 0 || concept >= n_concepts then
            invalid_arg (Printf.sprintf "Medline.make: citation %d references concept %d" id concept);
          buckets.(concept) <- id :: buckets.(concept))
        (Citation.concepts c))
    citations;
  let postings =
    Array.map
      (fun bucket ->
        Intset.of_sorted_array_unchecked (Array.of_list (List.rev bucket)))
      buckets
  in
  { hierarchy; citations; postings }

let hierarchy t = t.hierarchy
let size t = Array.length t.citations
let citation t i = t.citations.(i)
let citations t = t.citations
let postings t concept = t.postings.(concept)
let iter_postings t concept f = Intset.iter f t.postings.(concept)
let iter_citation_concepts t id f = Intset.iter f (Citation.concepts t.citations.(id))
let concept_count t concept = Intset.cardinal t.postings.(concept)

let mean_annotations t =
  if size t = 0 then 0.
  else
    let total =
      Array.fold_left (fun acc c -> acc + Intset.cardinal (Citation.concepts c)) 0 t.citations
    in
    float_of_int total /. float_of_int (size t)

let concepts_with_citations t =
  Array.fold_left (fun acc p -> if Intset.is_empty p then acc else acc + 1) 0 t.postings
