open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy
module Qualifiers = Bionav_mesh.Qualifiers
module Database = Bionav_store.Database
module Medline = Bionav_corpus.Medline
module Citation = Bionav_corpus.Citation

type dimension = Descriptor | Qualifier_facet

let dimension_name = function Descriptor -> "descriptor" | Qualifier_facet -> "qualifier"

(* Primary-qualifier assignment: the smallest qualifier id over all of the
   citation's descriptor/qualifier annotations. Deterministic and total, so
   the facet pages partition any result set exactly. *)
let primary_qualifier (c : Citation.t) =
  List.fold_left
    (fun acc (_, quals) ->
      List.fold_left
        (fun acc q -> match acc with Some best when best <= q -> acc | _ -> Some q)
        acc quals)
    None c.Citation.qualified

let unqualified_concept = Qualifiers.count + 1

let page_concept = function Some q -> q + 1 | None -> unqualified_concept

(* Node 0 = root, nodes 1..count = qualifier pages, node count+1 =
   "(unqualified)". One level deep: every page hangs off the root. *)
let build_facet_hierarchy () =
  let n = Qualifiers.count + 2 in
  let parent = Array.make n 0 in
  parent.(0) <- -1;
  let labels i =
    if i = 0 then "qualifiers"
    else if i = unqualified_concept then "(unqualified)"
    else Qualifiers.name (i - 1)
  in
  Hierarchy.of_parents ~labels parent

type facet = {
  fh : Hierarchy.t;
  page_of_citation : int array;  (* citation id -> facet concept *)
  totals : int array;  (* corpus-wide citations per facet concept *)
}

let build_facet medline =
  let fh = build_facet_hierarchy () in
  let n_cit = Medline.size medline in
  let page_of_citation = Array.make n_cit unqualified_concept in
  let totals = Array.make (Qualifiers.count + 2) 0 in
  Array.iter
    (fun c ->
      let page = page_concept (primary_qualifier c) in
      page_of_citation.(Citation.id c) <- page;
      totals.(page) <- totals.(page) + 1)
    (Medline.citations medline);
  (* The root carries no citations directly; its LT is the corpus size. *)
  totals.(0) <- n_cit;
  { fh; page_of_citation; totals }

type deriver = { database : Database.t; facet : facet Lazy.t option }

let deriver ?medline database =
  { database; facet = Option.map (fun m -> lazy (build_facet m)) medline }

let supports t = function Descriptor -> true | Qualifier_facet -> t.facet <> None

let facet_of t =
  match t.facet with
  | Some f -> Lazy.force f
  | None ->
      invalid_arg
        "Nav_space: the qualifier facet dimension needs the corpus citations (deriver ~medline)"

let derive_facet t result =
  let f = facet_of t in
  (* Bucket the result citations by primary-qualifier page. Each citation
     lands in exactly one bucket, so the attachments partition [result]. *)
  let pages = Array.make (Qualifiers.count + 2) [] in
  Docset.fold
    (fun cit () ->
      let page = f.page_of_citation.(cit) in
      pages.(page) <- cit :: pages.(page))
    result ();
  let attachments = ref [] in
  Array.iteri
    (fun page cits ->
      if cits <> [] then
        (* Reversed accumulation of an increasing fold = decreasing; build
           the sorted array directly instead of re-sorting. *)
        let arr = Array.of_list cits in
        let n = Array.length arr in
        let sorted = Array.init n (fun i -> arr.(n - 1 - i)) in
        attachments :=
          (page, Docset.of_sorted_array_unchecked sorted) :: !attachments)
    pages;
  Nav_tree.build ~hierarchy:f.fh ~attachments:!attachments
    ~total_count:(fun c -> f.totals.(c))

let derivation_hist dim = Metrics.histogram ("bionav_space_derivation_ms_" ^ dimension_name dim)

let descriptor_hist = derivation_hist Descriptor
let qualifier_hist = derivation_hist Qualifier_facet

let timed hist f =
  let nav, ms = Timing.time f in
  Metrics.observe hist ms;
  nav

let derive t dim result =
  match dim with
  | Descriptor -> timed descriptor_hist (fun () -> Nav_tree.of_database t.database result)
  | Qualifier_facet -> timed qualifier_hist (fun () -> derive_facet t result)

let restrict parent subset = timed descriptor_hist (fun () -> Nav_tree.restrict parent subset)
