(** The serving engine: one owner for the whole query→navigate pipeline.

    Every entry point (web app, CLI, bench harness, workload experiments)
    used to hand-wire query → {!Bionav_core.Nav_tree} →
    {!Bionav_core.Navigation} itself, and the web app's session table grew
    without bound. The engine consolidates that pipeline:

    + {b query normalization and tree caching} — queries go through
      {!Bionav_core.Nav_cache} (trimmed, lowercased, LRU-bounded);
    + {b session lifecycle} — sessions get a monotonic id and live in a
      bounded store: at [max_sessions] the least recently used session is
      evicted (counted), sessions can be {!close}d explicitly, and a TTL
      {!sweep} expires idle ones;
    + {b strategy dispatch} — strategies are validated at construction
      ({!strategy_of_name}), so a malformed [page_size] is a clean error
      instead of an exception at EXPAND time;
    + {b observability} — every stage records into
      {!Bionav_util.Metrics}; {!metrics_text} renders the registry for
      the web [/metrics] route and the CLI [--metrics] dump.

    This is the seam scaling work plugs into: entry points talk to the
    engine, never to [Navigation.start] directly.

    {b One owner} (DESIGN.md §11–§12): the session store, the tree
    cache and the plan cache are unsynchronized, and
    the engine serves one caller at a time. Every operation ({!search},
    the navigation actions, {!run_locked}, {!find_session}, {!close},
    {!sweep}, {!learn}, {!warm}, {!load_snapshot}, {!docset_stats},
    {!metrics_text}) takes one entry guard, an
    [Atomic] compare-and-set, and raises [Invalid_argument] if another
    operation is still inside: a nested call ({!expand} or
    {!run_locked} inside {!run_locked}) or a second domain entering
    concurrently. A later domain may take the engine over once the
    first has left — a server domain started after set-up does this.
    Accessors that read one field ({!snapshot}, {!session_count},
    {!navigation}, ...) take no guard. Every mutating action replaces
    the session's immutable, epoch-versioned
    {!Bionav_search.Nav_snapshot}, which rendering and result paging read
    after the action returns.

    {b Time} ({!Bionav_resilience}): all timing (session TTLs, EXPAND
    deadlines) reads [config.clock], so a simulated clock makes the
    whole engine's time behaviour test-controlled. With
    [expand_budget_ms] set, an EXPAND whose budget is exhausted before
    the cut computation starts degrades to a static-style cut (see
    {!Bionav_core.Navigation.set_budget}). The ESearch keyword lookup
    is a call into the in-process inverted index and cannot fail. *)

type config = {
  max_sessions : int;  (** Bound on live sessions (>= 1). Default 256. *)
  session_ttl_ms : float option;
      (** Idle time after which {!sweep} expires a session. Default
          [None] (no TTL). *)
  cache_capacity : int;  (** Navigation-tree cache entries. Default 32. *)
  prefetch : Bionav_prefetch.Prefetch.config option;
      (** Enable the cross-session plan cache ({!Bionav_prefetch}); every
          Heuristic and Faceted session is attached to it. Default [None]
          (off). *)
  clock : Bionav_resilience.Clock.t;
      (** The clock behind every engine timing decision. Default the
          real clock. *)
  expand_budget_ms : float option;
      (** Per-EXPAND time budget (>= 0): once exhausted, Heuristic
          sessions serve a degraded static-style cut instead of running
          the solver. Default [None] (no budget). *)
  segstore : Bionav_segstore.Store.spec option;
      (** Serve associations from an out-of-core segment store instead of
          the in-memory table: {!create} opens the store and rebinds the
          database's association backend through
          {!Bionav_segstore.Bridge}. The passed database still supplies
          the hierarchy (and its citation count is cross-checked against
          the store's). Default [None] (in-memory). *)
  adaptive : Bionav_adaptive.Adaptive.config option;
      (** Learn EXPLORE/EXPAND probabilities from live navigation
          behaviour ({!Bionav_adaptive.Adaptive}): cost-model sessions
          started with the default static model get the engine's current
          learned model instead, live actions feed the evidence store,
          and [bionav learn] / {!learn} bulk-ingest transcripts. Default
          [None] — the paper's static model, byte-identical behaviour. *)
}

val default_config : config

type t

val create :
  ?config:config ->
  database:Bionav_store.Database.t ->
  eutils:Bionav_search.Eutils.t ->
  unit ->
  t
(** With [config.segstore] set, the association backend is the opened
    segment store and [database] contributes only its hierarchy; the
    store must describe the same corpus (citation counts are checked).
    @raise Invalid_argument if [config.max_sessions < 1], a negative
    [expand_budget_ms], a segment store that is corrupt or disagrees
    with [database]. *)

val eutils : t -> Bionav_search.Eutils.t
val config : t -> config

val prefetch : t -> Bionav_prefetch.Prefetch.t option
(** The prefetch facade, when enabled. *)

val segstore : t -> Bionav_segstore.Store.t option
(** The opened segment store, when [config.segstore] was set. *)

val adaptive : t -> Bionav_adaptive.Adaptive.t option
(** The engine's learned-probability state, when [config.adaptive] was
    set. *)

val learn : t -> Bionav_core.Session_log.event list -> bool
(** Bulk-ingest one session transcript into the learned model and refresh
    it ({!Bionav_adaptive.Adaptive.learn}); [false] when the engine runs
    the static model ([config.adaptive = None]). New sessions pick up the
    refreshed model; running sessions keep the model they started with
    (their plan-cache keys carry its fingerprint, so no stale plan is
    ever served to a refreshed session). *)

(* --- strategies ------------------------------------------------------- *)

val validate_strategy :
  Bionav_core.Navigation.strategy -> (Bionav_core.Navigation.strategy, string) result
(** [Error] for [Static_paged] with [page_size < 1]. *)

val strategy_of_name :
  ?page_size:int -> string option -> (Bionav_core.Navigation.strategy, string) result
(** Parse a user-supplied strategy name: [None] or [Some "bionav"] is the
    paper's Heuristic-ReducedOpt, plus ["static"], ["paged"] (with
    [page_size], default 10, validated >= 1), ["optimal"] and ["faceted"]
    (start in the (descriptor × qualifier) facet space; see {!facet}).
    Anything else — including an invalid page size — is [Error].
    Strategies built here carry the static default model; {!search}
    substitutes the learned model when the engine is adaptive. *)

(* --- sessions --------------------------------------------------------- *)

type session
(** A live navigation session: a {e stack of navigation spaces} (derived
    trees), of which the top frame is the one being navigated. {!search}
    installs the base space ("descriptor", or "qualifier" for a [Faceted]
    strategy); {!refine} and {!facet} push derived spaces; {!unrefine}
    pops. *)

val session_id : session -> string

val session_nav : session -> Bionav_core.Nav_tree.t
(** The {e top} frame's navigation tree. *)

val navigation : session -> Bionav_core.Navigation.t
(** The {e top} frame's navigation state. The value changes identity
    across {!refine}/{!facet}/{!unrefine}; do not cache it across
    space-changing actions. *)

val space_id : session -> string
(** Identity of the active navigation space: a derivation path such as
    ["descriptor"], ["descriptor>refine:42"] or
    ["descriptor>refine:42>facets"]. Deterministic — equal paths on one
    query tree denote equal spaces, so the query tree keeps each space
    it derives under its path ({!Bionav_core.Nav_tree.derived}). *)

val refine_depth : session -> int
(** Frames above the base space (0 = unrefined). *)

val snapshot : session -> Bionav_search.Nav_snapshot.t
(** The session's latest snapshot, replaced by every mutating action.
    The view is internally consistent as of the epoch it carries and
    stays valid (immutable) even as the session advances. This is the
    read path: render, page results and rank from it. *)

type search_outcome =
  | No_results  (** The query matched no citations; no session created. *)
  | Session of session

val search :
  t -> ?strategy:Bionav_core.Navigation.strategy -> string -> (search_outcome, string) result
(** Run the pipeline: validate the strategy (default {!Bionav_core.Navigation.bionav}),
    fetch or build the navigation tree through the cache, and — if the
    query has results — create a session under a fresh monotonic id
    ("s0", "s1", ...), evicting the least recently used session first
    when the store is full. [Error] on a blank query or an invalid
    strategy. *)

val find_session : t -> string -> session option
(** Refreshes the session's recency and idle clock. *)

val close : t -> string -> bool
(** Explicitly end a session; [false] if the id is unknown. *)

val sweep : ?now_ms:float -> t -> int
(** Expire sessions idle longer than [config.session_ttl_ms]; returns the
    number closed (0 when no TTL is configured). [now_ms] defaults to
    [config.clock]'s now — prefer driving a simulated clock over passing
    an explicit [now_ms]. *)

val session_count : t -> int
val eviction_count : t -> int
(** LRU evictions (not explicit closes or TTL expiries) since creation. *)

(* --- navigation actions ----------------------------------------------- *)

val expand : session -> int -> int list
val show_results : session -> int -> Bionav_util.Docset.t
val backtrack : session -> bool
(** Each action takes the entry guard and replaces the session
    {!snapshot} before it returns. The docset returned by
    {!show_results} is an immutable value. *)

val refine : session -> int -> int
(** Query-by-navigation: narrow the live result set to the full
    navigation subtree [L(n)] of the given visible node, derive the
    descriptor space of that subset, and push it as the session's new top
    frame. The space comes from the spaces the session's query tree owns
    (revisiting a refinement path, from any session on that tree, derives
    nothing) or is filtered out of the nearest descriptor tree on the
    session's stack, or the query's own for a session based on the facet
    space ({!Bionav_core.Nav_space.restrict}); it reads neither the
    database nor the hierarchy. A node whose [L(n)] is that whole tree's
    result set narrows nothing: the frame navigates that tree. Returns
    the refined space's distinct result count. The snapshot republishes
    with the new space id and an advanced epoch together.
    @raise Invalid_argument if the node is not visible or is the root. *)

val facet : session -> int
(** Derive the (descriptor × qualifier) facet space of the current
    result set and push it (owned by the query tree, as for {!refine}):
    one page per MeSH qualifier (primary-qualifier
    assignment, an exact partition — no citation lost or duplicated)
    plus an "(unqualified)" page. Returns the number of non-empty facet
    pages. @raise Invalid_argument if the session is already in a facet
    space. *)

val unrefine : session -> bool
(** Pop the top navigation space, restoring the one beneath it exactly
    as it was left (same tree, same expansion state, same cost
    accounting); [false] at the base space. The epoch still advances —
    snapshots are never reused across space changes. *)

val run_locked : session -> (unit -> 'a) -> 'a
(** Run [f] inside one engine operation — for bulk drivers (simulation
    replay) that make many tree reads/expands as one atom — then
    replace the session {!snapshot}. Inside [f], use the raw
    {!Bionav_core.Navigation} operations, {b never}
    {!expand}/{!show_results}/{!backtrack} or a nested [run_locked]:
    any engine operation inside [f] raises [Invalid_argument]. For pure
    reads, prefer {!snapshot}. *)

(* --- detached sessions ------------------------------------------------ *)

val start :
  Bionav_core.Navigation.strategy -> Bionav_core.Nav_tree.t -> Bionav_core.Navigation.t
(** A session outside any store, for simulation and benchmarking
    ({!Bionav_core.Simulate}, {!Bionav_core.Stochastic_user}). This is
    the one sanctioned wrapper over [Navigation.start]: it validates the
    strategy (@raise Invalid_argument on a bad one) and counts the
    session. *)

(* --- prefetch & warm start -------------------------------------------- *)

val warm : t -> string list -> Bionav_store.Snapshot.entry list
(** Serve each normalized, deduplicated query as its first session
    would, as one engine operation: take its tree through the tree cache
    (built once, timed into [bionav_nav_tree_build_ms]) and run one root
    EXPAND under the default strategy (with the learned model when the
    engine is adaptive) and no budget, which fills the tree's root slot
    and, with prefetch enabled, stores the cut in the plan cache. Returns
    one entry per query — its searched result set and that root cut
    ([[]] when the root reveals nothing) — for {!save_snapshot}. *)

val save_snapshot : t -> Bionav_store.Snapshot.entry list -> string -> unit
(** Persist warm-start entries against this engine's database. *)

val load_snapshot : t -> string -> int
(** Warm-start from a snapshot file written by {!save_snapshot}, as one
    engine operation: rebuild each entry's tree from its stored result
    set into the tree cache and, with prefetch enabled, store its root
    cut in the plan cache under the engine's model, where a fresh
    session's first EXPAND finds it. Replaces what the caches held under
    the same queries. Returns the number of entries.
    @raise Invalid_argument if the snapshot is corrupt, of another
    format version or from a different database; [Sys_error] if
    unreadable. *)

(* --- observability ---------------------------------------------------- *)

val cache_hit_rate : t -> float

val plan_cache_hit_rate : t -> float
(** Plan-cache hits / lookups; 0 when prefetch is disabled or before the
    first lookup. *)

val docset_stats : t -> Bionav_util.Docset_arena.stats
(** Docset memory the engine can reach, walked when called: [bytes] is
    the {!Bionav_util.Docset.bytes} payload of the inverted index's
    posting lists, of every node and subtree set of each cached tree, of
    the spaces each cached or live query tree owns and of each live
    frame's tree, and of each live frame's visible component
    results, counting a physically shared value once. Result sets are
    not interned, so the other three fields are always 0. *)

val metrics_text : t -> string
(** Refresh the engine gauges — live session count plus
    [bionav_docset_resident_bytes] ({!docset_stats}), the segment-store
    cache gauges when one is open, and the process peak-RSS gauge
    ([bionav_process_peak_rss_bytes]) — and render the whole process
    metrics registry ({!Bionav_util.Metrics.dump}). *)
