open Bionav_util

type t = {
  by_concept : Intset.t array;
  by_citation : Intset.t array;
  n_associations : int;
}

let of_postings ~n_citations postings =
  let buckets = Array.make n_citations [] in
  let n_assoc = ref 0 in
  Array.iteri
    (fun concept citations ->
      Intset.iter
        (fun cit ->
          if cit < 0 || cit >= n_citations then
            invalid_arg
              (Printf.sprintf "Assoc_table: concept %d references citation %d (max %d)" concept
                 cit (n_citations - 1));
          buckets.(cit) <- concept :: buckets.(cit);
          incr n_assoc)
        citations)
    postings;
  (* Concepts were visited in increasing order, so each bucket is sorted
     descending; reversing restores the Intset invariant without a sort. *)
  let by_citation =
    Array.map (fun b -> Intset.of_sorted_array_unchecked (Array.of_list (List.rev b))) buckets
  in
  { by_concept = Array.map Fun.id postings; by_citation; n_associations = !n_assoc }

(* Streaming construction from the normalized pair stream — the same
   shape the segment-store ingest merge emits — without requiring the
   caller to materialize per-concept Intsets first. *)
let of_sorted_pairs ~n_concepts ~n_citations pairs =
  let postings = Array.make n_concepts Intset.empty in
  let current = ref (-1) in
  let acc = ref [] in
  let flush () =
    if !current >= 0 then
      postings.(!current) <- Intset.of_sorted_array_unchecked (Array.of_list (List.rev !acc))
  in
  Seq.iter
    (fun (concept, cit) ->
      if concept < 0 || concept >= n_concepts then
        invalid_arg
          (Printf.sprintf "Assoc_table.of_sorted_pairs: concept %d out of range" concept);
      if cit < 0 || cit >= n_citations then
        invalid_arg
          (Printf.sprintf "Assoc_table.of_sorted_pairs: citation %d out of range" cit);
      if concept < !current then
        invalid_arg "Assoc_table.of_sorted_pairs: pairs not sorted by concept";
      if concept > !current then begin
        flush ();
        current := concept;
        acc := []
      end;
      (match !acc with
      | prev :: _ when prev >= cit ->
          invalid_arg "Assoc_table.of_sorted_pairs: citations not strictly increasing"
      | _ -> ());
      acc := cit :: !acc)
    pairs;
  flush ();
  of_postings ~n_citations postings

let n_concepts t = Array.length t.by_concept
let n_citations t = Array.length t.by_citation
let n_associations t = t.n_associations

let citations_of_concept t c = t.by_concept.(c)
let concepts_of_citation t c = t.by_citation.(c)

let fold_concepts t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun concept citations ->
      if not (Intset.is_empty citations) then acc := f !acc concept citations)
    t.by_concept;
  !acc
