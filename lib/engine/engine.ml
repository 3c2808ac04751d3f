open Bionav_util
open Bionav_core
module Eutils = Bionav_search.Eutils
module Nav_snapshot = Bionav_search.Nav_snapshot
module Prefetch = Bionav_prefetch.Prefetch
module Warmer = Bionav_prefetch.Warmer
module Snapshot = Bionav_store.Snapshot
module Clock = Bionav_resilience.Clock
module Adaptive = Bionav_adaptive.Adaptive
module Guard = Bionav_resilience.Guard
module Deadline = Bionav_resilience.Deadline
module Chaos = Bionav_resilience.Chaos

exception Backend_unavailable of string

type config = {
  max_sessions : int;
  session_ttl_ms : float option;
  cache_capacity : int;
  prefetch : Prefetch.config option;
  clock : Clock.t;
  expand_budget_ms : float option;
  resilience : Guard.config option;
  shards : int;
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
    resilience = Some Guard.default_config;
    shards = 1;
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
         "descriptor" or "descriptor>refine:42>facets" — equal paths mean
         equal member sets, so caches may key on it *)
  fdim : Bionav_core.Nav_space.dimension;
  fkey : string;
      (* tree- and plan-cache key of this space: the bare query for the base
         descriptor frame (legacy-compatible with warm start and the plan
         cache), [normalize query ^ "\x1f" ^ fid] for derived spaces *)
  fnav : Nav_tree.t;
  fnavigation : Navigation.t;
}

(* A session is pinned to the shard that created it ([home]): its
   navigation trees came out of that shard's cache and the active tree's
   arena is mutated on every expand, so all mutation happens under
   [home.lock]. Reads go through [snapshot]: an immutable epoch-versioned
   view of the {e top} frame republished (RCU-style) after every
   mutation, consumed with [Atomic.get] and no lock (DESIGN.md §12).
   [frames] is an Atomic so the off-lock accessors ([navigation],
   [space_id], [refine_depth]) read a consistent stack; it is only
   written under the shard lock and is never empty. *)
type session = {
  sid : string;
  query : string;
  sstrategy : Navigation.strategy;
      (* the effective base strategy; per-frame strategies derive from it *)
  frames : frame list Atomic.t;  (* top frame first *)
  home : shard;
  snapshot : Nav_snapshot.t Atomic.t;
  seen_concepts : (int, unit) Hashtbl.t;
      (* concepts revealed to this session but not (yet) engaged with;
         mutated under the shard lock, flushed as IGNORE evidence when
         the session ends *)
  mutable epoch : int;  (* bumped under the shard lock at each publish *)
  mutable tick : int;  (* recency clock value of the last touch *)
  mutable last_use_ms : float;  (* config.clock time of the last touch, for TTLs *)
}

and shard = {
  snum : int;
  lock : Mutex.t;
  lock_owner : int Atomic.t;  (* domain id holding [lock]; -1 when free *)
  swaiters : Metrics.gauge;  (* per-shard lock queue depth *)
  cache : Nav_cache.t;
  sprefetch : Prefetch.t option;
  sguard : Guard.t option;
  sadaptive : Adaptive.t option;  (* engine-wide learned model, shared by all shards *)
  sderiver : Nav_space.deriver;  (* derives refined/faceted spaces; used under the lock *)
  sbudget : (unit -> unit -> bool) option;
      (* the EXPAND budget factory handed to Navigation.set_budget, when
         a guard or a budget is configured. The deadline starts first so
         an injected latency spike (the "expand" half of a fault plan)
         eats into it — exactly the overload signal that triggers
         degradation. *)
  srun_search : string -> Docset.t;
  sessions : (string, session) Hashtbl.t;
  shard_max : int;  (* per-shard session bound *)
  sarena_stats : Docset_arena.stats Atomic.t;
      (* aggregate over this shard's reachable arenas, refreshed on lock
         release so the metrics scrape never takes the lock *)
  mutable sclock : int;
  mutable sevictions : int;
}

type t = {
  config : config;
  database : Bionav_store.Database.t;
  store : Bionav_segstore.Store.t option;
  eutils : Eutils.t;
  search_lock : Mutex.t;  (* confines the inverted index's shared arena *)
  shards : shard array;
  next_sid : int Atomic.t;
  adaptive : Adaptive.t option;
      (* engine-wide (cross-shard) learned probability model; its own
         internal lock makes observes from any shard safe *)
}

let started_counter = Metrics.counter "bionav_sessions_started_total"
let evicted_counter = Metrics.counter "bionav_sessions_evicted_total"
let closed_counter = Metrics.counter "bionav_sessions_closed_total"
let expired_counter = Metrics.counter "bionav_sessions_expired_total"
let live_gauge = Metrics.gauge "bionav_sessions_live"
let lock_acq_counter = Metrics.counter "bionav_shard_lock_acquisitions_total"
let refinements_counter = Metrics.counter "bionav_refinements_total"
let refine_depth_gauge = Metrics.gauge "bionav_refine_depth"
let lock_wait_hist = Metrics.histogram "bionav_shard_lock_wait_ms"
let lock_hold_hist = Metrics.histogram "bionav_shard_lock_hold_ms"
let publish_hist = Metrics.histogram "bionav_snapshot_publish_ms"

(* Capture a frame's snapshot (under the shard lock), timing it into the
   snapshot-publication histogram. *)
let capture ~epoch ~query ~depth fr =
  let snap, ms =
    Timing.time (fun () ->
        Nav_snapshot.capture ~epoch ~query ~space:fr.fid ~refine_depth:depth fr.fnavigation)
  in
  Metrics.observe publish_hist ms;
  snap

(* --- the shard lock ----------------------------------------------------- *)

let zero_arena_stats =
  Docset_arena.
    {
      sets = 0;
      bytes = 0;
      dense = 0;
      sparse = 0;
      intern_requests = 0;
      dedup_hits = 0;
      memo_hits = 0;
    }

let add_arena_stats acc (st : Docset_arena.stats) =
  Docset_arena.
    {
      sets = acc.sets + st.sets;
      bytes = acc.bytes + st.bytes;
      dense = acc.dense + st.dense;
      sparse = acc.sparse + st.sparse;
      intern_requests = acc.intern_requests + st.intern_requests;
      dedup_hits = acc.dedup_hits + st.dedup_hits;
      memo_hits = acc.memo_hits + st.memo_hits;
    }

(* Aggregate stats over the arenas this shard can reach (cached trees +
   every frame of every live session, physically deduplicated). Called
   under the shard lock. *)
let shard_arena_stats shard =
  let arenas = ref [] in
  let note a = if not (List.memq a !arenas) then arenas := a :: !arenas in
  Nav_cache.fold_trees shard.cache (fun nav () -> note (Nav_tree.arena nav)) ();
  Hashtbl.iter
    (fun _ s -> List.iter (fun fr -> note (Nav_tree.arena fr.fnav)) (Atomic.get s.frames))
    shard.sessions;
  List.fold_left (fun acc a -> add_arena_stats acc (Docset_arena.stats a)) zero_arena_stats !arenas

(* Every acquisition of a shard lock goes through here: it detects
   same-domain re-entry (the mutexes are non-reentrant, so that would
   deadlock), maintains the wait/hold histograms and the per-shard
   queue-depth gauge, and refreshes the shard's published arena stats on
   the way out. *)
let with_shard shard f =
  let me = Ownership.self_id () in
  if Atomic.get shard.lock_owner = me then
    invalid_arg
      (Printf.sprintf
         "Engine: reentrant use of shard %d's lock from domain %d (run_locked inside \
          run_locked?)"
         shard.snum me);
  Metrics.add shard.swaiters 1.;
  let t0 = Timing.now_ms () in
  Mutex.lock shard.lock;
  let t1 = Timing.now_ms () in
  Metrics.add shard.swaiters (-1.);
  Metrics.observe lock_wait_hist (t1 -. t0);
  Metrics.incr lock_acq_counter;
  Atomic.set shard.lock_owner me;
  let release () =
    Atomic.set shard.sarena_stats (shard_arena_stats shard);
    Atomic.set shard.lock_owner (-1);
    Metrics.observe lock_hold_hist (Timing.now_ms () -. t1);
    Mutex.unlock shard.lock
  in
  match f () with
  | v ->
      release ();
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release ();
      Printexc.raise_with_backtrace e bt

let create ?(config = default_config) ?chaos ?snapshot ~database ~eutils () =
  if config.max_sessions < 1 then invalid_arg "Engine.create: max_sessions must be >= 1";
  if config.shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  (match config.expand_budget_ms with
  | Some b when b < 0. -> invalid_arg "Engine.create: expand_budget_ms must be >= 0"
  | Some _ | None -> ());
  (* A chaos plan is one stateful fault stream: sharding the engine would
     race the draws and silently skew the plan. Refuse instead of
     silently confining it to shard 0 (which dropped it for every other
     shard's traffic). *)
  (match chaos with
  | Some _ when config.shards > 1 ->
      invalid_arg "Engine.create: a chaos plan requires shards = 1"
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
  let search_lock = Mutex.create () in
  let index_arena = Bionav_search.Inverted_index.arena (Eutils.index eutils) in
  let adaptive =
    Option.map
      (fun cfg -> Adaptive.create ~config:cfg ~now_ms:(fun () -> Clock.now_ms config.clock) ())
      config.adaptive
  in
  let make_shard snum =
    let guard =
      match (config.resilience, chaos) with
      | None, None -> None
      | cfg, chaos ->
          let gconfig = Option.value cfg ~default:Guard.default_config in
          Some (Guard.create ?chaos ~config:gconfig ~clock:config.clock ())
    in
    let run_search query =
      (* esearch interns into the process-wide index arena: serialized
         across shards, and the arena is adopted by whichever domain got
         the lock. Only tree-cache misses pay this. *)
      let locked () =
        Mutex.protect search_lock (fun () ->
            Docset_arena.adopt index_arena;
            Eutils.esearch eutils query)
      in
      match guard with
      | None -> locked ()
      | Some g -> (
          match Guard.call g ~op:"esearch" locked with
          | Ok ids -> ids
          | Error e -> raise (Backend_unavailable (Guard.error_message e)))
    in
    let build query = Nav_tree.of_database database (run_search query) in
    let budget_factory () =
      let deadline =
        Option.map
          (fun budget_ms -> Deadline.start ~clock:config.clock ~budget_ms)
          config.expand_budget_ms
      in
      (match guard with None -> () | Some g -> Guard.inject g ~op:"expand");
      match deadline with None -> fun () -> false | Some d -> fun () -> Deadline.expired d
    in
    {
      snum;
      lock = Mutex.create ();
      lock_owner = Atomic.make (-1);
      swaiters = Metrics.gauge (Printf.sprintf "bionav_shard_lock_waiters_s%d" snum);
      cache = Nav_cache.create ~capacity:config.cache_capacity ~build ();
      sprefetch =
        Option.map (fun pc -> Prefetch.create ~config:pc ()) config.prefetch;
      sguard = guard;
      sadaptive = adaptive;
      sderiver = Nav_space.deriver ~medline:(Eutils.medline eutils) database;
      sbudget =
        (if Option.is_some guard || Option.is_some config.expand_budget_ms then
           Some budget_factory
         else None);
      srun_search = run_search;
      sessions = Hashtbl.create 64;
      shard_max = max 1 (config.max_sessions / config.shards);
      sarena_stats = Atomic.make zero_arena_stats;
      sclock = 0;
      sevictions = 0;
    }
  in
  let t =
    {
      config;
      database;
      store;
      eutils;
      search_lock;
      shards = Array.init config.shards make_shard;
      next_sid = Atomic.make 0;
      adaptive;
    }
  in
  (match snapshot with
  | None -> ()
  | Some path ->
      let entries = Snapshot.load ~db:database path in
      let n = ref 0 in
      Array.iter
        (fun shard ->
          n :=
            Warmer.apply ~db:database ~trees:shard.cache
              ?plans:(Option.map Prefetch.plans shard.sprefetch)
              ?model:(Option.map Adaptive.model t.adaptive)
              entries)
        t.shards;
      Logs.info (fun m -> m "engine: warm-started %d quer%s from %s" !n
                     (if !n = 1 then "y" else "ies") path));
  t

let eutils t = t.eutils
let config t = t.config
let prefetch t = t.shards.(0).sprefetch
let guard t = t.shards.(0).sguard
let resilience_clock t = t.config.clock
let shard_count t = Array.length t.shards
let segstore t = t.store

let shard_of_sid t sid = t.shards.(Hashtbl.hash sid mod Array.length t.shards)
let adaptive t = t.adaptive

let learn t events =
  match t.adaptive with
  | None -> false
  | Some ad ->
      Adaptive.learn ad events;
      true

(* --- frames -------------------------------------------------------------- *)

let top_frame s =
  match Atomic.get s.frames with
  | fr :: _ -> fr
  | [] -> assert false (* the frame stack is never empty *)

let refine_depth s = List.length (Atomic.get s.frames) - 1
let space_id s = (top_frame s).fid

(* --- adaptive evidence -------------------------------------------------- *)

(* Learned evidence is keyed by MeSH concept id, so only frames navigating
   the descriptor dimension feed it — a facet frame's "concepts" are
   synthetic qualifier-page ids that would poison the evidence store. *)
let descriptor_frame fr = fr.fdim = Nav_space.Descriptor

(* The session engaged with [node] (expanded it or listed its results):
   record the evidence and stop counting the concept as merely seen. *)
let note_engaged s observe node =
  match s.home.sadaptive with
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
  match s.home.sadaptive with
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
   IGNORE evidence. Called under the shard lock on every exit path
   (close, LRU eviction, TTL sweep). *)
let flush_ignores s =
  match s.home.sadaptive with
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
let session_query s = s.query
let session_nav s = (top_frame s).fnav
let navigation s = (top_frame s).fnavigation
let snapshot s = Atomic.get s.snapshot

let session_count t =
  Array.fold_left (fun acc shard -> acc + Hashtbl.length shard.sessions) 0 t.shards

let eviction_count t = Array.fold_left (fun acc shard -> acc + shard.sevictions) 0 t.shards

(* Reads other shards' table sizes without their locks: an int-field read
   per table, tolerable staleness for a gauge. *)
let publish_live t = Metrics.set live_gauge (float_of_int (session_count t))

let touch t s =
  let shard = s.home in
  shard.sclock <- shard.sclock + 1;
  s.tick <- shard.sclock;
  s.last_use_ms <- Clock.now_ms t.config.clock

let evict_lru shard =
  let victim =
    Hashtbl.fold
      (fun _ s acc ->
        match acc with Some best when best.tick <= s.tick -> acc | Some _ | None -> Some s)
      shard.sessions None
  in
  match victim with
  | Some s ->
      flush_ignores s;
      Hashtbl.remove shard.sessions s.sid;
      shard.sevictions <- shard.sevictions + 1;
      Metrics.incr evicted_counter;
      Logs.debug (fun m -> m "engine: evicted session %s (shard %d full)" s.sid shard.snum)
  | None -> ()

type search_outcome = No_results | Session of session

(* Wire a frame's navigation into the engine services: the EXPAND budget
   and the plan cache (keyed by the frame's space key). Shared by the base
   frame ([search]) and every derived frame ([refine]/[facet]). *)
let wire_frame shard ~fkey navigation =
  (match shard.sbudget with
  | None -> ()
  | Some factory -> Navigation.set_budget navigation (Some factory));
  Option.iter (fun pf -> Prefetch.attach_plans pf ~query:fkey navigation) shard.sprefetch

(* Fetch or derive a navigation space for a derived frame, through the
   shard's tree cache under the frame's composite key — so revisiting a
   refinement path is a cache hit, not a re-derivation. Runs under the
   shard lock. *)
let derived_space shard ~fkey ~dim subset =
  match Nav_cache.find shard.cache fkey with
  | Some nav -> nav
  | None ->
      let nav = Nav_space.derive shard.sderiver dim subset in
      Nav_cache.put shard.cache fkey nav;
      nav

let frame_key query fid = Nav_cache.normalize query ^ "\x1f" ^ fid

let search t ?(strategy = Navigation.bionav ()) query =
  match validate_strategy strategy with
  | Error msg -> Error msg
  | Ok strategy ->
      if String.trim query = "" then Error "empty query"
      else begin
        let strategy = effective_strategy t strategy in
        (* The sid is allocated before the (fallible) tree build so the
           shard — and therefore the lock and cache — can be chosen up
           front; a failed search burns an id, which stays monotonic. *)
        let sid = Printf.sprintf "s%d" (Atomic.fetch_and_add t.next_sid 1) in
        let shard = shard_of_sid t sid in
        with_shard shard (fun () ->
            match Nav_cache.get shard.cache query with
            | exception Backend_unavailable msg -> Error msg
            | nav ->
                Docset_arena.adopt (Nav_tree.arena nav);
                if Nav_tree.distinct_results nav = 0 then Ok No_results
                else begin
                  while Hashtbl.length shard.sessions >= shard.shard_max do
                    evict_lru shard
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
                          derived_space shard ~fkey ~dim:Nav_space.Qualifier_facet subset
                        in
                        { fid; fdim = Nav_space.Qualifier_facet; fkey; fnav;
                          fnavigation = Navigation.start strategy fnav }
                    | _ ->
                        { fid = "descriptor"; fdim = Nav_space.Descriptor; fkey = query;
                          fnav = nav; fnavigation = Navigation.start strategy nav }
                  in
                  Docset_arena.adopt (Nav_tree.arena base.fnav);
                  let s =
                    {
                      sid;
                      query;
                      sstrategy = strategy;
                      frames = Atomic.make [ base ];
                      home = shard;
                      snapshot =
                        Atomic.make (capture ~epoch:0 ~query ~depth:0 base);
                      seen_concepts = Hashtbl.create 16;
                      epoch = 0;
                      tick = 0;
                      last_use_ms = 0.;
                    }
                  in
                  touch t s;
                  Hashtbl.replace shard.sessions sid s;
                  wire_frame shard ~fkey:base.fkey base.fnavigation;
                  Metrics.incr started_counter;
                  publish_live t;
                  Ok (Session s)
                end)
      end

let find_session t sid =
  let shard = shard_of_sid t sid in
  with_shard shard (fun () ->
      match Hashtbl.find_opt shard.sessions sid with
      | Some s ->
          touch t s;
          Some s
      | None -> None)

let close t sid =
  let shard = shard_of_sid t sid in
  with_shard shard (fun () ->
      match Hashtbl.find_opt shard.sessions sid with
      | Some s ->
          flush_ignores s;
          Hashtbl.remove shard.sessions sid;
          Metrics.incr closed_counter;
          publish_live t;
          true
      | None -> false)

let sweep ?now_ms t =
  match t.config.session_ttl_ms with
  | None -> 0
  | Some ttl ->
      let now = match now_ms with Some n -> n | None -> Clock.now_ms t.config.clock in
      let total = ref 0 in
      Array.iter
        (fun shard ->
          with_shard shard (fun () ->
              let expired =
                Hashtbl.fold
                  (fun _ s acc -> if now -. s.last_use_ms > ttl then s :: acc else acc)
                  shard.sessions []
              in
              List.iter
                (fun s ->
                  flush_ignores s;
                  Hashtbl.remove shard.sessions s.sid)
                expired;
              total := !total + List.length expired))
        t.shards;
      let n = !total in
      if n > 0 then begin
        Metrics.incr ~by:n expired_counter;
        publish_live t;
        Logs.debug (fun m -> m "engine: expired %d idle session(s)" n)
      end;
      n

(* --- navigation actions ------------------------------------------------ *)

(* Re-capture and publish the session's snapshot from its top frame. Runs
   under the shard lock: capture reads the live active tree's
   per-component state; the Atomic.set is the RCU-style
   publication point. Epoch and space id advance together in the one
   atomic store, so a reader never observes a mixed-space view. *)
let publish s =
  s.epoch <- s.epoch + 1;
  let fr = top_frame s in
  Atomic.set s.snapshot (capture ~epoch:s.epoch ~query:s.query ~depth:(refine_depth s) fr)

let run_locked s f =
  with_shard s.home (fun () ->
      Docset_arena.adopt (Nav_tree.arena (top_frame s).fnav);
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

(* Push a derived frame: resolve the space through the tree cache (a
   revisited path is a Plan_cache-style hit, not a re-derivation), start
   a navigation on it under the dimension-mapped strategy and wire it
   into the budget and the plan cache. [run_locked] then publishes. *)
let push_frame s ~fid ~dim subset =
  let shard = s.home in
  let fkey = frame_key s.query fid in
  let fnav = derived_space shard ~fkey ~dim subset in
  Docset_arena.adopt (Nav_tree.arena fnav);
  let fnavigation = Navigation.start (frame_strategy shard.sadaptive s.sstrategy dim) fnav in
  let fr = { fid; fdim = dim; fkey; fnav; fnavigation } in
  wire_frame shard ~fkey fnavigation;
  Atomic.set s.frames (fr :: Atomic.get s.frames);
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
         space ids always mean equal member sets and the cache stays
         sound. *)
      let subset = Nav_tree.subtree_results fr.fnav node in
      note_engaged s Adaptive.observe_show node;
      let fid = Printf.sprintf "%s>refine:%d" fr.fid concept in
      let fr' = push_frame s ~fid ~dim:Nav_space.Descriptor subset in
      Nav_tree.distinct_results fr'.fnav)

let facet s =
  run_locked s (fun () ->
      let fr = top_frame s in
      if fr.fdim = Nav_space.Qualifier_facet then
        invalid_arg "Engine.facet: the session is already in a qualifier-facet space";
      let subset = Nav_tree.subtree_results fr.fnav (Nav_tree.root fr.fnav) in
      let fid = fr.fid ^ ">facets" in
      let fr' = push_frame s ~fid ~dim:Nav_space.Qualifier_facet subset in
      (* Number of qualifier pages (every non-root node of the flat facet
         tree is a page). *)
      Nav_tree.size fr'.fnav - 1)

let unrefine s =
  run_locked s (fun () ->
      match Atomic.get s.frames with
      | [] | [ _ ] -> false
      | _ :: rest ->
          Atomic.set s.frames rest;
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
  let model = Option.map Adaptive.model t.adaptive in
  let entries = Warmer.build ~db:t.database ~run:t.shards.(0).srun_search ?model queries in
  Array.iter
    (fun shard ->
      with_shard shard (fun () ->
          ignore
            (Warmer.apply ~db:t.database ~trees:shard.cache
               ?plans:(Option.map Prefetch.plans shard.sprefetch)
               ?model entries
              : int)))
    t.shards;
  entries

let save_snapshot t entries path = Snapshot.save ~db:t.database entries path

(* --- observability ------------------------------------------------------ *)

let cache_hit_rate t =
  let hits, lookups =
    Array.fold_left
      (fun (h, l) shard ->
        let sh = Nav_cache.hits shard.cache and sm = Nav_cache.misses shard.cache in
        (h + sh, l + sh + sm))
      (0, 0) t.shards
  in
  if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups

let plan_cache_hit_rate t =
  let hits, lookups =
    Array.fold_left
      (fun (h, l) shard ->
        match shard.sprefetch with
        | None -> (h, l)
        | Some pf ->
            let plans = Prefetch.plans pf in
            let ph = Bionav_prefetch.Plan_cache.hits plans
            and pm = Bionav_prefetch.Plan_cache.misses plans in
            (h + ph, l + ph + pm))
      (0, 0) t.shards
  in
  if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups

let docset_sets_gauge = Metrics.gauge "bionav_docset_live_sets"
let docset_bytes_gauge = Metrics.gauge "bionav_docset_resident_bytes"
let docset_dense_gauge = Metrics.gauge "bionav_docset_live_dense"
let docset_sparse_gauge = Metrics.gauge "bionav_docset_live_sparse"
let docset_dedup_gauge = Metrics.gauge "bionav_docset_dedup_hit_rate"

(* Aggregate docset stats without any shard lock: the inverted index's
   arena is read directly (pure reads are domain-safe; its plain stat
   fields may lag the writer by a beat — monitoring tolerance), and each
   shard contributes the aggregate it published at its last lock
   release. The scrape path therefore never contends with navigation. *)
let docset_stats t =
  let acc =
    add_arena_stats zero_arena_stats
      (Docset_arena.stats (Bionav_search.Inverted_index.arena (Eutils.index t.eutils)))
  in
  Array.fold_left
    (fun acc shard -> add_arena_stats acc (Atomic.get shard.sarena_stats))
    acc t.shards

let publish_docset t =
  let st = docset_stats t in
  Metrics.set docset_sets_gauge (float_of_int st.Docset_arena.sets);
  Metrics.set docset_bytes_gauge (float_of_int st.Docset_arena.bytes);
  Metrics.set docset_dense_gauge (float_of_int st.Docset_arena.dense);
  Metrics.set docset_sparse_gauge (float_of_int st.Docset_arena.sparse);
  Metrics.set docset_dedup_gauge
    (if st.Docset_arena.intern_requests = 0 then 0.
     else float_of_int st.Docset_arena.dedup_hits /. float_of_int st.Docset_arena.intern_requests)

let metrics_text t =
  publish_live t;
  publish_docset t;
  Option.iter Bionav_segstore.Store.publish_metrics t.store;
  Procinfo.publish ();
  Metrics.dump ()
