(* The Hashtbl-and-cons-list bucketing that the counting sort in
   lib/store/database.ml replaced, kept as the differential-test oracle:
   each result citation is consed onto its concepts' lists, which are
   then reversed, copied to arrays and sorted by concept. *)

open Bionav_util
module DB = Bionav_store.Database

let bucket_result db iter =
  let buckets = Hashtbl.create 256 in
  iter (fun cit ->
      DB.iter_concepts_of_citation db cit (fun concept ->
          let prev = match Hashtbl.find_opt buckets concept with Some l -> l | None -> [] in
          Hashtbl.replace buckets concept (cit :: prev)));
  Hashtbl.fold (fun concept cits acc -> (concept, Array.of_list (List.rev cits)) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* What [DB.concepts_of_result] and [DB.concepts_of_result_ds] return, as
   plain arrays. *)
let concepts_of_result db result = bucket_result db (fun f -> Docset.iter f result)
