open Bionav_util
open Bionav_core
module Eutils = Bionav_search.Eutils
module Nav_snapshot = Bionav_search.Nav_snapshot
module Prefetch = Bionav_prefetch.Prefetch
module Warmer = Bionav_prefetch.Warmer
module Snapshot = Bionav_store.Snapshot
module Clock = Bionav_resilience.Clock
module Adaptive = Bionav_adaptive.Adaptive
module Deadline = Bionav_resilience.Deadline

type config = {
  max_sessions : int;
  session_ttl_ms : float option;
  cache_capacity : int;
  prefetch : Prefetch.config option;
  clock : Clock.t;
  expand_budget_ms : float option;
  segstore : Bionav_segstore.Store.spec option;
  adaptive : Adaptive.config option;
}

let default_config =
  {
    max_sessions = 256;
    session_ttl_ms = None;
    cache_capacity = 32;
    prefetch = None;
    clock = Clock.real;
    expand_budget_ms = None;
    segstore = None;
    adaptive = None;
  }

(* One navigation space the session is (or was) navigating: the tree
   derived along [fdim] for [fid]'s result set, and the Navigation.t
   driving it. The base space of a session is the bottom frame; every
   [refine]/[facet] pushes a new frame, [unrefine] pops it. *)
type frame = {
  fid : string;
      (* the space identity: a deterministic derivation path like
         "descriptor" or "descriptor>refine:42>facets" — within one query
         tree equal paths mean equal member sets, so the tree keys the
         spaces it owns by it *)
  fdim : Bionav_core.Nav_space.dimension;
  fkey : string;
      (* plan-cache key of this space: the bare query for the base
         descriptor frame (legacy-compatible with warm start), [normalize
         query ^ "\x1f" ^ fid] for derived spaces *)
  fnav : Nav_tree.t;
  fnavigation : Navigation.t;
}

(* A session's navigation trees came out of the engine's cache and its
   active tree is mutated on every expand; every mutation runs
   inside one engine operation ([enter]). Readers render from [snapshot]:
   an immutable epoch-versioned view of the {e top} frame, replaced after
   every mutating action (DESIGN.md §12). [frames] is never empty. *)
type session = {
  sid : string;
  query : string;
  sstrategy : Navigation.strategy;
      (* the effective base strategy; per-frame strategies derive from it *)
  qnav : Nav_tree.t;
      (* the query's descriptor tree: what a refinement with no descriptor
         frame beneath it (a session based on the facet space) narrows,
         and the owner of every space the session derives *)
  mutable frames : frame list;  (* top frame first *)
  owner : t;
  mutable snapshot : Nav_snapshot.t;
  seen_concepts : (int, unit) Hashtbl.t;
      (* concepts revealed to this session but not (yet) engaged with;
         flushed as IGNORE evidence when the session ends *)
  mutable epoch : int;  (* bumped at each publish *)
  mutable tick : int;  (* recency clock value of the last touch *)
  mutable last_use_ms : float;  (* config.clock time of the last touch, for TTLs *)
}

and t = {
  config : config;
  database : Bionav_store.Database.t;
  store : Bionav_segstore.Store.t option;
  eutils : Eutils.t;
  in_use : bool Atomic.t;  (* the entry guard: set while an operation runs *)
  cache : Nav_cache.t;
  prefetch : Prefetch.t option;
  adaptive : Adaptive.t option;  (* learned probability model *)
  deriver : Nav_space.deriver;  (* derives facet spaces *)
  budget : (unit -> unit -> bool) option;
      (* the EXPAND budget factory handed to Navigation.set_budget, when
         a budget is configured *)
  sessions : (string, session) Hashtbl.t;
  mutable next_sid : int;
  mutable clock_tick : int;
  mutable evictions : int;
}

let started_counter = Metrics.counter "bionav_sessions_started_total"
let evicted_counter = Metrics.counter "bionav_sessions_evicted_total"
let closed_counter = Metrics.counter "bionav_sessions_closed_total"
let expired_counter = Metrics.counter "bionav_sessions_expired_total"
let live_gauge = Metrics.gauge "bionav_sessions_live"
let refinements_counter = Metrics.counter "bionav_refinements_total"
let refine_depth_gauge = Metrics.gauge "bionav_refine_depth"
let publish_hist = Metrics.histogram "bionav_snapshot_publish_ms"

(* Capture a frame's snapshot, timing it into the snapshot-publication
   histogram. *)
let capture ~epoch ~query ~depth fr =
  let snap, ms =
    Timing.time (fun () ->
        Nav_snapshot.capture ~epoch ~query ~space:fr.fid ~refine_depth:depth fr.fnavigation)
  in
  Metrics.observe publish_hist ms;
  snap

(* --- the entry guard ------------------------------------------------------- *)

(* Every engine operation runs inside [enter]: one compare-and-set on the
   in-use flag. The engine has one owner at a time (DESIGN.md §11), so a
   second entry — a nested operation, or another domain entering while
   one is inside — raises instead of racing on the unsynchronized session
   store and caches. Once the operation leaves, any domain may
   enter next. *)
let enter t f =
  if not (Atomic.compare_and_set t.in_use false true) then
    invalid_arg
      "Engine: entered while another engine operation is running (a nested call, or a \
       second domain)";
  Fun.protect ~finally:(fun () -> Atomic.set t.in_use false) f

let create ?(config = default_config) ?snapshot ~database ~eutils () =
  if config.max_sessions < 1 then invalid_arg "Engine.create: max_sessions must be >= 1";
  (match config.expand_budget_ms with
  | Some b when b < 0. -> invalid_arg "Engine.create: expand_budget_ms must be >= 0"
  | Some _ | None -> ());
  (* With a segment store configured, associations come off the mapped
     segments and the passed database contributes only its hierarchy. *)
  let store, database =
    match config.segstore with
    | None -> (None, database)
    | Some spec ->
        let st =
          Bionav_segstore.Store.open_dir
            ~config:spec.Bionav_segstore.Store.spec_config
            spec.Bionav_segstore.Store.dir
        in
        let db_citations = Bionav_store.Database.n_citations database in
        if Bionav_segstore.Store.n_citations st <> db_citations then
          invalid_arg
            (Printf.sprintf
               "Engine.create: segment store has %d citations but the database has %d"
               (Bionav_segstore.Store.n_citations st)
               db_citations);
        ( Some st,
          Bionav_segstore.Bridge.database st (Bionav_store.Database.hierarchy database) )
  in
  let adaptive =
    Option.map
      (fun cfg -> Adaptive.create ~config:cfg ~now_ms:(fun () -> Clock.now_ms config.clock) ())
      config.adaptive
  in
  let build query = Nav_tree.of_database database (Eutils.esearch eutils query) in
  let t =
    {
      config;
      database;
      store;
      eutils;
      in_use = Atomic.make false;
      cache = Nav_cache.create ~capacity:config.cache_capacity ~build ();
      prefetch = Option.map (fun pc -> Prefetch.create ~config:pc ()) config.prefetch;
      adaptive;
      deriver = Nav_space.deriver ~medline:(Eutils.medline eutils) database;
      budget =
        Option.map
          (fun budget_ms () ->
            let d = Deadline.start ~clock:config.clock ~budget_ms in
            fun () -> Deadline.expired d)
          config.expand_budget_ms;
      sessions = Hashtbl.create 64;
      next_sid = 0;
      clock_tick = 0;
      evictions = 0;
    }
  in
  (match snapshot with
  | None -> ()
  | Some path ->
      let entries = Snapshot.load ~db:database path in
      let n =
        Warmer.apply ~db:database ~trees:t.cache
          ?plans:(Option.map Prefetch.plans t.prefetch)
          ?model:(Option.map Adaptive.model t.adaptive)
          entries
      in
      Logs.info (fun m -> m "engine: warm-started %d quer%s from %s" n
                     (if n = 1 then "y" else "ies") path));
  t

let eutils t = t.eutils
let config t = t.config
let prefetch t = t.prefetch
let segstore t = t.store
let adaptive t = t.adaptive

let learn t events =
  enter t (fun () ->
      match t.adaptive with
      | None -> false
      | Some ad ->
          Adaptive.learn ad events;
          true)

(* --- frames -------------------------------------------------------------- *)

let top_frame s =
  match s.frames with
  | fr :: _ -> fr
  | [] -> assert false (* the frame stack is never empty *)

let refine_depth s = List.length s.frames - 1
let space_id s = (top_frame s).fid

(* --- adaptive evidence -------------------------------------------------- *)

(* Learned evidence is keyed by MeSH concept id, so only frames navigating
   the descriptor dimension feed it — a facet frame's "concepts" are
   synthetic qualifier-page ids that would poison the evidence store. *)
let descriptor_frame fr = fr.fdim = Nav_space.Descriptor

(* The session engaged with [node] (expanded it or listed its results):
   record the evidence and stop counting the concept as merely seen. *)
let note_engaged s observe node =
  match s.owner.adaptive with
  | None -> ()
  | Some ad ->
      let fr = top_frame s in
      if descriptor_frame fr then begin
        let concept = Nav_tree.concept_id fr.fnav node in
        if concept >= 0 then begin
          Hashtbl.remove s.seen_concepts concept;
          observe ad ~concept
        end
      end

let note_revealed s revealed =
  match s.owner.adaptive with
  | None -> ()
  | Some _ ->
      let fr = top_frame s in
      if descriptor_frame fr then
        List.iter
          (fun node ->
            let concept = Nav_tree.concept_id fr.fnav node in
            if concept >= 0 then Hashtbl.replace s.seen_concepts concept ())
          revealed

(* The session is over: whatever it was shown and never engaged with is
   IGNORE evidence. Called on every exit path
   (close, LRU eviction, TTL sweep). *)
let flush_ignores s =
  match s.owner.adaptive with
  | None -> ()
  | Some ad ->
      Hashtbl.iter (fun concept () -> Adaptive.observe_ignore ad ~concept) s.seen_concepts;
      Hashtbl.reset s.seen_concepts

(* --- strategies -------------------------------------------------------- *)

let validate_strategy = function
  | Navigation.Static_paged { page_size } when page_size < 1 ->
      Error (Printf.sprintf "page_size must be >= 1 (got %d)" page_size)
  | s -> Ok s

let strategy_of_name ?(page_size = 10) name =
  match name with
  | None | Some "bionav" -> Ok (Navigation.bionav ())
  | Some "static" -> Ok Navigation.Static
  | Some "paged" -> validate_strategy (Navigation.Static_paged { page_size })
  | Some "optimal" -> Ok (Navigation.optimal ())
  | Some "faceted" -> Ok (Navigation.faceted ())
  | Some s -> Error (Printf.sprintf "unknown strategy %S" s)

(* With learning enabled, cost-model strategies get the engine's current
   learned model — unless the caller pinned a non-default one (an A/B arm
   or an explicit [~params] stays untouched). The session holds the model
   value it started with for its whole life, so its plans stay internally
   consistent; only {e new} sessions see refreshed evidence. *)
let substitute_learned adaptive strategy =
  match adaptive with
  | None -> strategy
  | Some ad -> (
      let default_fp = Probability.default_model.Probability.fingerprint in
      match strategy with
      | Navigation.Heuristic { k; model; reuse } when String.equal model.Probability.fingerprint default_fp ->
          Navigation.Heuristic { k; model = Adaptive.model ad; reuse }
      | Navigation.Optimal { model } when String.equal model.Probability.fingerprint default_fp ->
          Navigation.Optimal { model = Adaptive.model ad }
      | s -> s)

let effective_strategy t strategy = substitute_learned t.adaptive strategy

(* The strategy a frame runs: the session's base strategy, mapped to the
   frame's dimension. A descriptor frame of a Faceted-base session runs
   plain Heuristic (with the learned model when the engine is adaptive);
   a facet frame of a Heuristic-base session runs Faceted under the
   facet-tuned cost model. Model-free strategies pass through. *)
let frame_strategy adaptive base = function
  | Nav_space.Descriptor -> (
      match base with
      | Navigation.Faceted { k; reuse; _ } ->
          substitute_learned adaptive (Navigation.bionav ~k ~reuse ())
      | s -> s)
  | Nav_space.Qualifier_facet -> (
      match base with
      | Navigation.Heuristic { k; reuse; _ } | Navigation.Faceted { k; reuse; _ } ->
          Navigation.faceted ~k ~reuse ()
      | Navigation.Optimal _ -> Navigation.Optimal { model = Probability.facet_model }
      | (Navigation.Static | Navigation.Static_paged _) as s -> s)

(* --- session store ----------------------------------------------------- *)

let session_id s = s.sid
let session_nav s = (top_frame s).fnav
let navigation s = (top_frame s).fnavigation
let snapshot s = s.snapshot
let session_count t = Hashtbl.length t.sessions

let eviction_count t = t.evictions

let publish_live t = Metrics.set live_gauge (float_of_int (session_count t))

let touch t s =
  t.clock_tick <- t.clock_tick + 1;
  s.tick <- t.clock_tick;
  s.last_use_ms <- Clock.now_ms t.config.clock

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ s acc ->
        match acc with Some best when best.tick <= s.tick -> acc | Some _ | None -> Some s)
      t.sessions None
  in
  match victim with
  | Some s ->
      flush_ignores s;
      Hashtbl.remove t.sessions s.sid;
      t.evictions <- t.evictions + 1;
      Metrics.incr evicted_counter;
      Logs.debug (fun m -> m "engine: evicted session %s (store full)" s.sid)
  | None -> ()

type search_outcome = No_results | Session of session

(* Wire a frame's navigation into the engine services: the EXPAND budget
   and the plan cache (keyed by the frame's space key). Shared by the base
   frame ([search]) and every derived frame ([refine]/[facet]). *)
let wire_frame t ~fkey navigation =
  (match t.budget with
  | None -> ()
  | Some factory -> Navigation.set_budget navigation (Some factory));
  Option.iter (fun pf -> Prefetch.attach_plans pf ~query:fkey navigation) t.prefetch

let frame_key query fid = Nav_cache.normalize query ^ "\x1f" ^ fid

let search t ?(strategy = Navigation.bionav ()) query =
  match validate_strategy strategy with
  | Error msg -> Error msg
  | Ok strategy ->
      if String.trim query = "" then Error "empty query"
      else begin
        let strategy = effective_strategy t strategy in
        enter t (fun () ->
            (* Allocated before the tree lookup: a query without results
               burns an id, which stays monotonic. *)
            let sid = Printf.sprintf "s%d" t.next_sid in
            t.next_sid <- t.next_sid + 1;
            let nav = Nav_cache.get t.cache query in
            if Nav_tree.distinct_results nav = 0 then Ok No_results
            else begin
              while Hashtbl.length t.sessions >= t.config.max_sessions do
                evict_lru t
              done;
              (* A Faceted base strategy starts the session in the
                 qualifier-facet space of the full result set; the
                 descriptor tree built above stays cached for later
                 refinements. Everything else starts on descriptors. *)
              let base =
                match strategy with
                | Navigation.Faceted _ ->
                    let fid = "qualifier" in
                    let fkey = frame_key query fid in
                    let subset = Nav_tree.subtree_results nav (Nav_tree.root nav) in
                    let fnav =
                      Nav_tree.derived nav fid (fun () ->
                          Nav_space.derive t.deriver Nav_space.Qualifier_facet subset)
                    in
                    { fid; fdim = Nav_space.Qualifier_facet; fkey; fnav;
                      fnavigation = Navigation.start strategy fnav }
                | _ ->
                    { fid = "descriptor"; fdim = Nav_space.Descriptor; fkey = query;
                      fnav = nav; fnavigation = Navigation.start strategy nav }
              in
              let s =
                {
                  sid;
                  query;
                  sstrategy = strategy;
                  qnav = nav;
                  frames = [ base ];
                  owner = t;
                  snapshot = capture ~epoch:0 ~query ~depth:0 base;
                  seen_concepts = Hashtbl.create 16;
                  epoch = 0;
                  tick = 0;
                  last_use_ms = 0.;
                }
              in
              touch t s;
              Hashtbl.replace t.sessions sid s;
              wire_frame t ~fkey:base.fkey base.fnavigation;
              Metrics.incr started_counter;
              publish_live t;
              Ok (Session s)
            end)
      end

let find_session t sid =
  enter t (fun () ->
      match Hashtbl.find_opt t.sessions sid with
      | Some s ->
          touch t s;
          Some s
      | None -> None)

let close t sid =
  enter t (fun () ->
      match Hashtbl.find_opt t.sessions sid with
      | Some s ->
          flush_ignores s;
          Hashtbl.remove t.sessions sid;
          Metrics.incr closed_counter;
          publish_live t;
          true
      | None -> false)

let sweep ?now_ms t =
  enter t (fun () ->
      match t.config.session_ttl_ms with
      | None -> 0
      | Some ttl ->
          let now = match now_ms with Some n -> n | None -> Clock.now_ms t.config.clock in
          let expired =
            Hashtbl.fold
              (fun _ s acc -> if now -. s.last_use_ms > ttl then s :: acc else acc)
              t.sessions []
          in
          List.iter
            (fun s ->
              flush_ignores s;
              Hashtbl.remove t.sessions s.sid)
            expired;
          let n = List.length expired in
          if n > 0 then begin
            Metrics.incr ~by:n expired_counter;
            publish_live t;
            Logs.debug (fun m -> m "engine: expired %d idle session(s)" n)
          end;
          n)

(* --- navigation actions ------------------------------------------------ *)

(* Re-capture the session's snapshot from its top frame. Epoch and space
   id advance together in one new snapshot value, so a reader never sees
   a mixed-space view. *)
let publish s =
  s.epoch <- s.epoch + 1;
  let fr = top_frame s in
  s.snapshot <- capture ~epoch:s.epoch ~query:s.query ~depth:(refine_depth s) fr

let run_locked s f =
  enter s.owner (fun () ->
      let r = f () in
      publish s;
      r)

let expand s node =
  run_locked s (fun () ->
      let revealed = Navigation.expand (navigation s) node in
      note_engaged s Adaptive.observe_expand node;
      note_revealed s revealed;
      revealed)

let show_results s node =
  run_locked s (fun () ->
      let results = Navigation.show_results (navigation s) node in
      note_engaged s Adaptive.observe_show node;
      results)

let backtrack s = run_locked s (fun () -> Navigation.backtrack (navigation s))

(* --- navigation spaces: refine / facet / unrefine ----------------------- *)

(* Push a derived frame on [fnav]: start a navigation on it under the
   dimension-mapped strategy and wire it into the budget and the plan
   cache. [run_locked] then publishes. *)
let push_frame s ~fid ~dim fnav =
  let t = s.owner in
  let fkey = frame_key s.query fid in
  let fnavigation = Navigation.start (frame_strategy t.adaptive s.sstrategy dim) fnav in
  let fr = { fid; fdim = dim; fkey; fnav; fnavigation } in
  wire_frame t ~fkey fnavigation;
  s.frames <- fr :: s.frames;
  Metrics.incr refinements_counter;
  Metrics.set refine_depth_gauge (float_of_int (refine_depth s));
  fr

let refine s node =
  run_locked s (fun () ->
      let fr = top_frame s in
      let active = Navigation.active fr.fnavigation in
      if not (Active_tree.is_visible active node) then
        invalid_arg (Printf.sprintf "Engine.refine: node %d is not visible" node);
      if node = Nav_tree.root fr.fnav then
        invalid_arg "Engine.refine: refining on the root would not narrow the result set";
      let concept = Nav_tree.concept_id fr.fnav node in
      (* Narrow to the node's full navigation subtree L(n) — a property of
         the tree alone (not of the session's expansion state), so equal
         space ids always mean equal member sets and the query tree may
         key the space by its id. *)
      let subset = Nav_tree.subtree_results fr.fnav node in
      note_engaged s Adaptive.observe_show node;
      let fid = Printf.sprintf "%s>refine:%d" fr.fid concept in
      (* Every frame's results lie inside those of the frames beneath it
         and of the query, so the subset is filtered out of the nearest
         descriptor tree; a subset of all its results is that tree. *)
      let parent =
        match List.find_opt descriptor_frame s.frames with
        | Some d -> d.fnav
        | None -> s.qnav
      in
      let fnav =
        if Docset.cardinal subset = Nav_tree.distinct_results parent then parent
        else Nav_tree.derived s.qnav fid (fun () -> Nav_space.restrict parent subset)
      in
      let fr' = push_frame s ~fid ~dim:Nav_space.Descriptor fnav in
      Nav_tree.distinct_results fr'.fnav)

let facet s =
  run_locked s (fun () ->
      let fr = top_frame s in
      if fr.fdim = Nav_space.Qualifier_facet then
        invalid_arg "Engine.facet: the session is already in a qualifier-facet space";
      let subset = Nav_tree.subtree_results fr.fnav (Nav_tree.root fr.fnav) in
      let fid = fr.fid ^ ">facets" in
      let fnav =
        Nav_tree.derived s.qnav fid (fun () ->
            Nav_space.derive s.owner.deriver Nav_space.Qualifier_facet subset)
      in
      let fr' = push_frame s ~fid ~dim:Nav_space.Qualifier_facet fnav in
      (* Number of qualifier pages (every non-root node of the flat facet
         tree is a page). *)
      Nav_tree.size fr'.fnav - 1)

let unrefine s =
  run_locked s (fun () ->
      match s.frames with
      | [] | [ _ ] -> false
      | _ :: rest ->
          s.frames <- rest;
          Metrics.set refine_depth_gauge (float_of_int (refine_depth s));
          true)

(* --- detached sessions -------------------------------------------------- *)

let start strategy nav =
  (match validate_strategy strategy with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Engine.start: " ^ msg));
  Metrics.incr started_counter;
  Navigation.start strategy nav

(* --- prefetch & warm start ---------------------------------------------- *)

let warm t queries =
  enter t (fun () ->
      let model = Option.map Adaptive.model t.adaptive in
      let entries = Warmer.build ~db:t.database ~run:(Eutils.esearch t.eutils) ?model queries in
      ignore
        (Warmer.apply ~db:t.database ~trees:t.cache
           ?plans:(Option.map Prefetch.plans t.prefetch)
           ?model entries
          : int);
      entries)

let save_snapshot t entries path = Snapshot.save ~db:t.database entries path

(* --- observability ------------------------------------------------------ *)

let hit_rate hits misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

let cache_hit_rate t = hit_rate (Nav_cache.hits t.cache) (Nav_cache.misses t.cache)

let plan_cache_hit_rate t =
  match t.prefetch with
  | None -> 0.
  | Some pf ->
      let plans = Prefetch.plans pf in
      hit_rate (Bionav_prefetch.Plan_cache.hits plans) (Bionav_prefetch.Plan_cache.misses plans)

let docset_bytes_gauge = Metrics.gauge "bionav_docset_resident_bytes"

(* Resident docset payload, computed when asked: the index's posting
   lists plus the sets of every tree the engine can reach (cached query
   trees, the spaces each owns, and every frame of every live session,
   deduplicated physically since session trees come out of the cache or
   a family) and each frame's visible component results. A union equal
   to one of its operands is that operand, so a subtree set may be the
   node's own results or a child's subtree set, and a component's
   results may be a member's set; such shared values are counted once.
   No hashing: a scrape stays linear. *)
let docset_bytes t =
  let trees = ref [] in
  let note nav = if not (List.memq nav !trees) then trees := nav :: !trees in
  let note_family nav () =
    note nav;
    Nav_tree.fold_derived nav (fun _ d () -> note d) ()
  in
  Nav_cache.fold_trees t.cache note_family ();
  Hashtbl.iter (fun _ s -> note_family s.qnav (); List.iter (fun fr -> note fr.fnav) s.frames)
    t.sessions;
  let bytes = ref (Bionav_search.Inverted_index.resident_bytes (Eutils.index t.eutils)) in
  let add set = bytes := !bytes + Docset.bytes set in
  List.iter
    (fun nav ->
      for i = 0 to Nav_tree.size nav - 1 do
        let own = Nav_tree.results nav i and sub = Nav_tree.subtree_results nav i in
        let is_child_set c = sub == Nav_tree.subtree_results nav c in
        add own;
        if sub != own && not (List.exists is_child_set (Nav_tree.children nav i)) then add sub
      done)
    !trees;
  Hashtbl.iter
    (fun _ s ->
      List.iter
        (fun fr ->
          let active = Navigation.active fr.fnavigation in
          let is_member_set set m =
            set == Nav_tree.results fr.fnav m || set == Nav_tree.subtree_results fr.fnav m
          in
          List.iter
            (fun r ->
              let set = Active_tree.component_results active r in
              if not (Array.exists (is_member_set set) (Active_tree.component_members active r))
              then add set)
            (Active_tree.visible active))
        s.frames)
    t.sessions;
  !bytes

let docset_stats t =
  enter t (fun () ->
      { Docset_arena.bytes = docset_bytes t; intern_requests = 0; dedup_hits = 0; memo_hits = 0 })

let metrics_text t =
  enter t (fun () ->
      publish_live t;
      Metrics.set docset_bytes_gauge (float_of_int (docset_bytes t));
      Option.iter Bionav_segstore.Store.publish_metrics t.store;
      Procinfo.publish ();
      Metrics.dump ())
