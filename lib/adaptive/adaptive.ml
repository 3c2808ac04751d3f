open Bionav_core

type config = {
  params : Probability.params;
  half_life_ms : float option;
  prior_strength : float;
  explore_boost : float;
  refresh_every : int;
}

let default_config =
  {
    params = Probability.default_params;
    half_life_ms = None;
    prior_strength = 8.;
    explore_boost = 4.;
    refresh_every = 64;
  }

type t = {
  config : config;
  evidence : Evidence.t;
  now_ms : unit -> float;
  mutable model : Probability.model;
  mutable pending : int;  (* observations since the last model refresh *)
  mutable epoch : int;  (* bumped per refresh; part of the fingerprint *)
}

let observe_counter = Bionav_util.Metrics.counter "bionav_adaptive_observations_total"
let refresh_counter = Bionav_util.Metrics.counter "bionav_adaptive_refreshes_total"
let concepts_gauge = Bionav_util.Metrics.gauge "bionav_adaptive_concepts"

let epsilon = 1e-12

(* The learned model, materialized. Evidence is frozen into an immutable
   per-concept table at build time (decayed to the build instant), so the
   closures handed to Cost_model are pure — deterministic for plan
   caching, and unaffected by later observes until the next refresh
   swaps the whole model.

   - EXPLORE: each node's IDF-like weight |L|/|LT| is multiplied by the
     concept's engagement lift
       (prior + boost * engaged) / (prior + engaged + ignored)
     — 1 with no evidence, -> boost for concepts users reliably engage
     with, -> prior / (prior + ignored) < 1 for concepts users are shown
     and walk past. Branch probabilities are ratios of EXPLORE masses, so
     lifts steer cuts toward subtrees users actually visit.
   - EXPAND: the paper's estimate acts as a Bayesian prior with
     [prior_strength] pseudo-observations, shrunk toward the empirical
     expand rate e / (e + s) over the component's concepts:
       (prior * p_static + e) / (prior + e + s).
     Components that genuinely cannot be expanded (a single underlying
     concept) stay at 0 regardless of evidence. *)
let build_model cfg evidence ~now_ms ~epoch =
  let params = cfg.params in
  let table =
    Evidence.fold evidence ~now_ms
      (fun concept c acc ->
        let engaged = c.Evidence.expands +. c.Evidence.shows in
        let lift =
          (cfg.prior_strength +. (cfg.explore_boost *. engaged))
          /. (cfg.prior_strength +. engaged +. c.Evidence.ignores)
        in
        Hashtbl.replace acc concept (lift, c.Evidence.expands, c.Evidence.shows);
        acc)
      (Hashtbl.create 256)
  in
  let lift concept =
    if concept < 0 then 1.
    else match Hashtbl.find_opt table concept with Some (l, _, _) -> l | None -> 1.
  in
  let expand_evidence concept =
    if concept < 0 then (0., 0.)
    else match Hashtbl.find_opt table concept with Some (_, e, s) -> (e, s) | None -> (0., 0.)
  in
  let weight tree i = Probability.explore_weight tree i *. lift (Comp_tree.concept tree i) in
  let normalizer tree =
    let acc = ref 0. in
    for i = 0 to Comp_tree.size tree - 1 do
      acc := !acc +. weight tree i
    done;
    Float.max epsilon !acc
  in
  let explore ~norm tree members =
    let w = List.fold_left (fun acc i -> acc +. weight tree i) 0. members in
    Float.min 1.0 (w /. Float.max epsilon norm)
  in
  let expand tree ~members ~distinct =
    let p0 = Probability.expand params tree ~members ~distinct in
    let underlying =
      List.fold_left (fun acc i -> acc + Comp_tree.multiplicity tree i) 0 members
    in
    if underlying <= 1 then 0.
    else begin
      let e = ref 0. and s = ref 0. in
      List.iter
        (fun i ->
          Array.iter
            (fun c ->
              let ec, sc = expand_evidence c in
              e := !e +. ec;
              s := !s +. sc)
            (Comp_tree.sub_concepts tree i))
        members;
      let n = !e +. !s in
      if n <= 0. then p0
      else
        Float.max 0.
          (Float.min 1.0 (((cfg.prior_strength *. p0) +. !e) /. (cfg.prior_strength +. n)))
    end
  in
  Bionav_util.Metrics.set concepts_gauge (float_of_int (Hashtbl.length table));
  Probability.make_model ~params
    ~fingerprint:
      (Printf.sprintf "learned/%s/e%d" (Probability.params_fingerprint params) epoch)
    ~normalizer ~explore ~expand

let create ?(config = default_config) ?(now_ms = Bionav_util.Timing.now_ms) () =
  if config.prior_strength <= 0. then
    invalid_arg "Adaptive.create: prior_strength must be > 0";
  if config.explore_boost < 1. then invalid_arg "Adaptive.create: explore_boost must be >= 1";
  if config.refresh_every < 1 then invalid_arg "Adaptive.create: refresh_every must be >= 1";
  Probability.validate_params config.params;
  let evidence = Evidence.create ?half_life_ms:config.half_life_ms () in
  {
    config;
    evidence;
    now_ms;
    model = build_model config evidence ~now_ms:(now_ms ()) ~epoch:0;
    pending = 0;
    epoch = 0;
  }

let config t = t.config
let evidence t = t.evidence
let model t = t.model
let observations t = Evidence.observations t.evidence

let refresh t =
  t.epoch <- t.epoch + 1;
  t.pending <- 0;
  t.model <- build_model t.config t.evidence ~now_ms:(t.now_ms ()) ~epoch:t.epoch;
  Bionav_util.Metrics.incr refresh_counter

(* The amortization that keeps [observe_*] off the hot path's back: the
   O(evidence) model rebuild runs every [refresh_every] observations; each
   observation itself is an O(1) counter bump. *)
let bump t =
  Bionav_util.Metrics.incr observe_counter;
  t.pending <- t.pending + 1;
  if t.pending >= t.config.refresh_every then refresh t

let observe_expand t ~concept =
  Evidence.observe_expand t.evidence ~now_ms:(t.now_ms ()) ~concept;
  bump t

let observe_show t ~concept =
  Evidence.observe_show t.evidence ~now_ms:(t.now_ms ()) ~concept;
  bump t

let observe_ignore t ~concept =
  Evidence.observe_ignore t.evidence ~now_ms:(t.now_ms ()) ~concept;
  bump t

(* Transcript ingest with session-scoped ignore semantics: a concept some
   EXPAND revealed counts as ignored only if the session ended without the
   user ever engaging (expanding or listing) it. *)
let learn t events =
  let now_ms = t.now_ms () in
  let seen = Hashtbl.create 32 and engaged = Hashtbl.create 32 in
  let engage concept =
    Hashtbl.replace engaged concept ();
    Hashtbl.remove seen concept
  in
  List.iter
    (fun (e : Session_log.event) ->
      match e with
      | Session_log.Expanded { concept; revealed } ->
          engage concept;
          Evidence.observe_expand t.evidence ~now_ms ~concept;
          List.iter
            (fun c -> if not (Hashtbl.mem engaged c) then Hashtbl.replace seen c ())
            revealed
      | Session_log.Shown { concept; _ } ->
          engage concept;
          Evidence.observe_show t.evidence ~now_ms ~concept
      | Session_log.Backtracked -> ()
      | Session_log.Refined { concept } ->
          (* Narrowing the whole session to a concept's subtree is the
             strongest engagement signal a session can emit. *)
          engage concept;
          Evidence.observe_show t.evidence ~now_ms ~concept
      | Session_log.Unrefined | Session_log.Faceted -> ())
    events;
  Hashtbl.iter (fun concept () -> Evidence.observe_ignore t.evidence ~now_ms ~concept) seen;
  refresh t

let top_concepts t n =
  let now_ms = t.now_ms () in
  let all =
    Evidence.fold t.evidence ~now_ms
      (fun concept c acc ->
        let engaged = c.Evidence.expands +. c.Evidence.shows in
        let lift =
          (t.config.prior_strength +. (t.config.explore_boost *. engaged))
          /. (t.config.prior_strength +. engaged +. c.Evidence.ignores)
        in
        (concept, c, lift) :: acc)
      []
  in
  let by_engagement (_, (a : Evidence.counts), _) (_, (b : Evidence.counts), _) =
    Float.compare (b.expands +. b.shows) (a.expands +. a.shows)
  in
  List.filteri (fun i _ -> i < n) (List.sort by_engagement all)

let status_text t =
  let buf = Buffer.create 256 in
  let m = model t in
  Buffer.add_string buf
    (Printf.sprintf "model: %s\nobservations: %d\nconcepts: %d\nhalf_life_ms: %s\n"
       m.Probability.fingerprint (observations t)
       (Evidence.concept_count t.evidence ~now_ms:(t.now_ms ()))
       (match t.config.half_life_ms with None -> "none" | Some hl -> Printf.sprintf "%g" hl));
  Buffer.add_string buf
    (Printf.sprintf "prior_strength: %g\nexplore_boost: %g\nrefresh_every: %d\n"
       t.config.prior_strength t.config.explore_boost t.config.refresh_every);
  List.iter
    (fun (concept, (c : Evidence.counts), lift) ->
      Buffer.add_string buf
        (Printf.sprintf "concept %d: expands=%.2f shows=%.2f ignores=%.2f lift=%.3f\n" concept
           c.expands c.shows c.ignores lift))
    (top_concepts t 10);
  Buffer.contents buf
