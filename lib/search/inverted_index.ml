open Bionav_util
module Medline = Bionav_corpus.Medline
module Citation = Bionav_corpus.Citation

type t = { table : (string, Docset.t) Hashtbl.t }

let build medline =
  let buckets : (string, int list ref) Hashtbl.t = Hashtbl.create (1 lsl 16) in
  Array.iter
    (fun c ->
      let id = Citation.id c in
      let text = c.Citation.title ^ " " ^ c.Citation.abstract in
      List.iter
        (fun tok ->
          match Hashtbl.find_opt buckets tok with
          | Some l -> if (match !l with x :: _ -> x <> id | [] -> true) then l := id :: !l
          | None -> Hashtbl.add buckets tok (ref [ id ]))
        (Tokenizer.tokens text))
    (Medline.citations medline);
  let table = Hashtbl.create (Hashtbl.length buckets) in
  Hashtbl.iter
    (fun tok l ->
      (* Ids were appended in increasing order (deduplicated adjacently), so
         the reversed list is sorted strictly increasing. *)
      Hashtbl.add table tok
        (Docset.of_sorted_array_unchecked (Array.of_list (List.rev !l))))
    buckets;
  { table }

let resident_bytes t = Hashtbl.fold (fun _ s acc -> acc + Docset.bytes s) t.table 0

let postings t term =
  let tok = String.lowercase_ascii (String.trim term) in
  match Hashtbl.find_opt t.table tok with
  | Some s -> s
  | None -> Docset.empty

let query_tokens q = Tokenizer.unique_tokens q

let query_and t q =
  match query_tokens q with
  | [] -> Docset.empty
  | first :: rest ->
      List.fold_left (fun acc tok -> Docset.inter acc (postings t tok)) (postings t first) rest

let query_or t q =
  Docset.union_many (List.map (postings t) (query_tokens q))

let document_frequency t term = Docset.cardinal (postings t term)
