open Bionav_util
module Medline = Bionav_corpus.Medline
module Citation = Bionav_corpus.Citation

type t = { medline : Medline.t; index : Inverted_index.t; ranked : Ranked.t Lazy.t }

let create medline =
  {
    medline;
    index = Inverted_index.build medline;
    (* Term-frequency vectors are only needed for relevance-sorted paging;
       build them on first use. *)
    ranked = lazy (Ranked.build medline);
  }

let esearch_counter = Metrics.counter "bionav_esearch_total"
let esearch_hist = Metrics.histogram "bionav_esearch_ms"

let esearch t query =
  Metrics.incr esearch_counter;
  let result, elapsed_ms = Timing.time (fun () -> Inverted_index.query_and t.index query) in
  Metrics.observe esearch_hist elapsed_ms;
  result

let esearch_paged ?(retstart = 0) ?(retmax = 20) ?(sort = `Id) t query =
  if retstart < 0 || retmax < 0 then invalid_arg "Eutils.esearch_paged: negative paging";
  let results = esearch t query in
  let ordered =
    match sort with
    | `Id -> Docset.elements results
    | `Relevance -> Ranked.rank (Lazy.force t.ranked) ~query results
  in
  ordered
  |> List.filteri (fun i _ -> i >= retstart && i < retstart + retmax)

let esearch_count t query = Docset.cardinal (esearch t query)

let esearch_mh ?qualifier t label =
  let hierarchy = Medline.hierarchy t.medline in
  match Bionav_mesh.Hierarchy.find_by_label hierarchy (String.trim label) with
  | None -> Docset.empty
  | Some concept -> (
      let annotated = Medline.postings t.medline concept in
      match qualifier with
      | None -> Docset.of_intset annotated
      | Some qname -> (
          match Bionav_mesh.Qualifiers.find_by_name qname with
          | None -> invalid_arg (Printf.sprintf "Eutils.esearch_mh: unknown qualifier %S" qname)
          | Some q ->
              Docset.of_intset
                (Intset.of_list
                   (Intset.fold
                      (fun id acc ->
                        let c = Medline.citation t.medline id in
                        match List.assoc_opt concept c.Citation.qualified with
                        | Some qs when List.mem q qs -> id :: acc
                        | Some _ | None -> acc)
                      annotated []))))

let check_id t id =
  if id < 0 || id >= Medline.size t.medline then
    invalid_arg (Printf.sprintf "Eutils: unknown citation id %d" id)

let citation t id =
  check_id t id;
  Medline.citation t.medline id

let esummary t ids = List.map (fun id -> Citation.summary (citation t id)) ids

let concepts_of t id =
  check_id t id;
  Docset.of_intset (Citation.concepts (Medline.citation t.medline id))

let medline t = t.medline
let index t = t.index
