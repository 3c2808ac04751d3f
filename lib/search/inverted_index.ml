open Bionav_util
module Medline = Bionav_corpus.Medline
module Citation = Bionav_corpus.Citation

type t = {
  arena : Docset_arena.t;  (* owns postings and every query result *)
  table : (string, Docset.t) Hashtbl.t;
}

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
  (* One long-lived arena for the whole index: terms sharing a posting list
     share one physical set, and query evaluation below interns its
     intermediate results here, so repeated queries are memo hits. *)
  let arena = Docset_arena.create () in
  let table = Hashtbl.create (Hashtbl.length buckets) in
  Hashtbl.iter
    (fun tok l ->
      (* Ids were appended in increasing order (deduplicated adjacently), so
         the reversed list is sorted strictly increasing. *)
      Hashtbl.add table tok
        (Docset.of_sorted_array_unchecked_in arena (Array.of_list (List.rev !l))))
    buckets;
  { arena; table }

let arena t = t.arena

let postings t term =
  let tok = String.lowercase_ascii (String.trim term) in
  match Hashtbl.find_opt t.table tok with
  | Some s -> s
  | None -> Docset.in_arena t.arena Docset.empty

let query_tokens q = Tokenizer.unique_tokens q

let query_and t q =
  match query_tokens q with
  | [] -> Docset.in_arena t.arena Docset.empty
  | first :: rest ->
      List.fold_left (fun acc tok -> Docset.inter acc (postings t tok)) (postings t first) rest

let query_or t q =
  Docset.in_arena t.arena (Docset.union_many (List.map (postings t) (query_tokens q)))

let document_frequency t term = Docset.cardinal (postings t term)
