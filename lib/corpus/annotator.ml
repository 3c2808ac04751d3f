open Bionav_util
module Hierarchy = Bionav_mesh.Hierarchy

type params = {
  related_per_topic : float;
  background_mean : float;
  background_depth_decay : float;
}

let default_params =
  { related_per_topic = 6.0; background_mean = 45.0; background_depth_decay = 0.55 }

let light_params =
  { related_per_topic = 3.0; background_mean = 10.0; background_depth_decay = 0.6 }

type t = {
  params : params;
  hierarchy : Hierarchy.t;
  rng : Rng.t;
  by_depth : int array array;  (** Non-root nodes grouped by depth (index 1..). *)
  depth_cdf : float array;  (** Cumulative background-depth distribution. *)
}

let create ?(params = default_params) hierarchy rng =
  let h = Hierarchy.height hierarchy in
  let by_depth =
    Array.init (h + 1) (fun d ->
        if d = 0 then [||] else Array.of_list (Hierarchy.nodes_at_depth hierarchy d))
  in
  let weights =
    Array.init (h + 1) (fun d ->
        if d = 0 || Array.length by_depth.(d) = 0 then 0.
        else Float.pow params.background_depth_decay (float_of_int d))
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let depth_cdf = Array.make (h + 1) 0. in
  let acc = ref 0. in
  for d = 0 to h do
    acc := !acc +. (weights.(d) /. total);
    depth_cdf.(d) <- !acc
  done;
  { params; hierarchy; rng; by_depth; depth_cdf }

let draw_background t =
  let u = Rng.float t.rng 1.0 in
  let d = ref 0 in
  while !d < Array.length t.depth_cdf - 1 && t.depth_cdf.(!d) < u do
    incr d
  done;
  (* Fall back to depth 1 when the drawn depth holds no concept. *)
  let d = if Array.length t.by_depth.(!d) = 0 then 1 else !d in
  Rng.choice t.rng t.by_depth.(d)

(* Siblings and uncle-level concepts near a topic. *)
let related_candidates t topic =
  let h = t.hierarchy in
  let parent = Hierarchy.parent h topic in
  if parent = -1 then []
  else begin
    let siblings = List.filter (fun c -> c <> topic) (Hierarchy.children h parent) in
    let children = Hierarchy.children h topic in
    let uncles =
      let gp = Hierarchy.parent h parent in
      if gp = -1 then [] else List.filter (fun c -> c <> parent) (Hierarchy.children h gp)
    in
    siblings @ children @ uncles
  end

let poissonish rng mean =
  (* Geometric with matching mean: adequate dispersion for this model. *)
  if mean <= 0. then 0 else Rng.geometric rng (1. /. (1. +. mean))

let annotate t ~major_topics =
  let h = t.hierarchy in
  let root = Hierarchy.root h in
  let acc = ref [] in
  let add c = if c <> root then acc := c :: !acc in
  List.iter
    (fun topic ->
      add topic;
      List.iter add (Hierarchy.ancestors h topic);
      let candidates = Array.of_list (related_candidates t topic) in
      if Array.length candidates > 0 then begin
        let k = poissonish t.rng t.params.related_per_topic in
        let chosen = Rng.sample t.rng k candidates in
        Array.iter
          (fun c ->
            add c;
            (* Related concepts also pull in their ancestor chains, like a
               genuine PubMed association would. *)
            List.iter add (Hierarchy.ancestors h c))
          chosen
      end)
    major_topics;
  let n_background = poissonish t.rng t.params.background_mean in
  for _ = 1 to n_background do
    let c = draw_background t in
    add c;
    List.iter add (Hierarchy.ancestors h c)
  done;
  Intset.of_list !acc
