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
   backend orientation is live, as a counting sort. One pass records each
   citation's concepts (a run per citation) and counts them per concept;
   prefix sums of the counts place every concept's bucket in one flat
   array, which a second pass over the record fills and each concept's
   slice is copied out of. [iter] must visit the result's [n] citations
   in increasing id order so each bucket comes out sorted. *)
let bucket_result t ~n iter =
  let n_concepts = Hierarchy.size t.hierarchy in
  let counts = Array.make n_concepts 0 in
  let cits = Array.make n 0 and ends = Array.make n 0 in
  (* Sized for the corpus-wide mean of concepts per citation, rounded up;
     a result above it grows the record by doubling. *)
  let per_citation =
    if n_citations t = 0 then 1 else (n_associations t + n_citations t - 1) / n_citations t
  in
  let concepts = ref (Array.make (max 1 (n * per_citation)) 0) in
  let len = ref 0 and i = ref 0 in
  iter (fun cit ->
      cits.(!i) <- cit;
      iter_concepts_of_citation t cit (fun c ->
          if !len = Array.length !concepts then begin
            let bigger = Array.make (2 * !len) 0 in
            Array.blit !concepts 0 bigger 0 !len;
            concepts := bigger
          end;
          !concepts.(!len) <- c;
          incr len;
          counts.(c) <- counts.(c) + 1);
      ends.(!i) <- !len;
      incr i);
  let concepts = !concepts in
  (* [counts.(c)] becomes the start of c's bucket in [flat], and the fill
     moves it to the bucket's end, which is where c + 1's starts. *)
  let start = ref 0 in
  for c = 0 to n_concepts - 1 do
    let k = counts.(c) in
    counts.(c) <- !start;
    start := !start + k
  done;
  let flat = Array.make !len 0 in
  let p = ref 0 in
  for j = 0 to n - 1 do
    while !p < ends.(j) do
      let c = concepts.(!p) in
      flat.(counts.(c)) <- cits.(j);
      counts.(c) <- counts.(c) + 1;
      incr p
    done
  done;
  let acc = ref [] in
  for c = n_concepts - 1 downto 0 do
    let first = if c = 0 then 0 else counts.(c - 1) in
    if counts.(c) > first then acc := (c, Array.sub flat first (counts.(c) - first)) :: !acc
  done;
  !acc

let concepts_of_result t result =
  List.map
    (fun (c, arr) -> (c, Intset.of_sorted_array_unchecked arr))
    (bucket_result t ~n:(Intset.cardinal result) (fun f -> Intset.iter f result))

let concepts_of_result_ds t ~arena result =
  List.map
    (fun (c, arr) -> (c, Docset.of_sorted_array_unchecked_in arena arr))
    (bucket_result t ~n:(Docset.cardinal result) (fun f -> Docset.iter f result))
