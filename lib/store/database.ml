open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy
module Medline = Bionav_corpus.Medline

type external_backend = {
  x_n_concepts : int;
  x_n_citations : int;
  x_n_associations : int;
  x_total_count : int -> int;
  x_iter_citations_of_concept : int -> (int -> unit) -> unit;
  x_iter_concepts_of_citation : int -> (int -> unit) -> unit;
}

type backend = Memory of Assoc_table.t | External of external_backend

type t = {
  hierarchy : Hierarchy.t;
  backend : backend;
  total_counts : int array;
}

let make ~hierarchy ~assoc =
  if Assoc_table.n_concepts assoc <> Hierarchy.size hierarchy then
    invalid_arg
      (Printf.sprintf "Database.make: %d concepts in table, %d in hierarchy"
         (Assoc_table.n_concepts assoc) (Hierarchy.size hierarchy));
  let total_counts =
    Array.init (Hierarchy.size hierarchy) (fun c ->
        Intset.cardinal (Assoc_table.citations_of_concept assoc c))
  in
  { hierarchy; backend = Memory assoc; total_counts }

let make_external ~hierarchy backend =
  if backend.x_n_concepts <> Hierarchy.size hierarchy then
    invalid_arg
      (Printf.sprintf "Database.make_external: %d concepts in backend, %d in hierarchy"
         backend.x_n_concepts (Hierarchy.size hierarchy));
  (* LT(n) is metadata on an external backend (per-key counts from the
     segment directories) — precomputing the array keeps [total_count]
     an O(1) array read on both backends without decoding anything. *)
  let total_counts = Array.init backend.x_n_concepts backend.x_total_count in
  { hierarchy; backend = External backend; total_counts }

let of_medline medline =
  let hierarchy = Medline.hierarchy medline in
  let postings = Array.init (Hierarchy.size hierarchy) (Medline.postings medline) in
  let assoc = Assoc_table.of_postings ~n_citations:(Medline.size medline) postings in
  make ~hierarchy ~assoc

let hierarchy t = t.hierarchy

let assoc t =
  match t.backend with
  | Memory a -> a
  | External _ ->
      invalid_arg
        "Database.assoc: external (segment-store) backend has no in-memory association table"

let is_external t = match t.backend with Memory _ -> false | External _ -> true
let total_count t c = t.total_counts.(c)

let n_citations t =
  match t.backend with
  | Memory a -> Assoc_table.n_citations a
  | External b -> b.x_n_citations

let n_associations t =
  match t.backend with
  | Memory a -> Assoc_table.n_associations a
  | External b -> b.x_n_associations

let iter_citations_of_concept t concept f =
  match t.backend with
  | Memory a -> Intset.iter f (Assoc_table.citations_of_concept a concept)
  | External b -> b.x_iter_citations_of_concept concept f

let iter_concepts_of_citation t cit f =
  match t.backend with
  | Memory a -> Intset.iter f (Assoc_table.concepts_of_citation a cit)
  | External b -> b.x_iter_concepts_of_citation cit f

let citations_of_concept t concept =
  match t.backend with
  | Memory a -> Assoc_table.citations_of_concept a concept
  | External b ->
      let acc = ref [] in
      b.x_iter_citations_of_concept concept (fun cit -> acc := cit :: !acc);
      Intset.of_sorted_array_unchecked (Array.of_list (List.rev !acc))

(* The shared core of the on-line tree input: bucket the result's
   citations under each concept that annotates them, through whichever
   backend orientation is live. [iter] must visit citations in
   increasing id order so each bucket comes out sorted (descending,
   reversed once at the end). *)
let bucket_result t iter =
  let buckets = Hashtbl.create 256 in
  iter (fun cit ->
      iter_concepts_of_citation t cit (fun concept ->
          let prev = match Hashtbl.find_opt buckets concept with Some l -> l | None -> [] in
          Hashtbl.replace buckets concept (cit :: prev)));
  Hashtbl.fold
    (fun concept cits acc ->
      (concept, Array.of_list (List.rev cits)) :: acc)
    buckets []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let concepts_of_result t result =
  List.map
    (fun (c, arr) -> (c, Intset.of_sorted_array_unchecked arr))
    (bucket_result t (fun f -> Intset.iter f result))

let concepts_of_result_ds t ~arena result =
  List.map
    (fun (c, arr) -> (c, Docset.of_sorted_array_unchecked_in arena arr))
    (bucket_result t (fun f -> Docset.iter f result))
