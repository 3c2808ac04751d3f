(** The BioNav web application (paper Fig. 7: "BioNav Web Interface").

    A handler over the serving engine ({!Bionav_engine.Engine}): keyword
    search creates an engine-managed navigation session (bounded store,
    LRU eviction); EXPAND / SHOWRESULTS / BACKTRACK are links. The
    handler is pure request-in/response-out (no sockets), so the whole
    interface is unit-testable; {!Http.serve} provides the transport.

    Routes (all GET):
    - [/] — search form (with optional suggested queries);
    - [/search?q=...&strategy=bionav|static|paged|optimal&page_size=N] —
      run the query, create a session, show its tree (400 on an unknown
      strategy or [page_size < 1]);
    - [/session?sid=...] — render a session's active tree;
    - [/expand?sid=...&node=...] — EXPAND a visible node;
    - [/show?sid=...&node=...] — SHOWRESULTS on a visible node;
    - [/back?sid=...] — BACKTRACK;
    - [/metrics] — plaintext dump of the process metrics registry
      (expand latency percentiles, cache, session and prefetch counters);
    - [/prefetch] — plaintext plan-cache status: size, hits, misses and
      hit rate (or ["prefetch: disabled"]);
    - [/healthz] — constant-work liveness probe (the live session
      count), cheap enough for load balancers and the serve bench to
      poll without perturbing the engine. *)

type t

val create :
  ?suggestions:string list ->
  ?config:Bionav_engine.Engine.config ->
  database:Bionav_store.Database.t ->
  eutils:Bionav_search.Eutils.t ->
  unit ->
  t
(** [config] bounds the session store and the navigation-tree cache
    (defaults: {!Bionav_engine.Engine.default_config}). *)

val handle : t -> Http.handler
(** 404 on unknown routes, 400 on missing/invalid parameters. *)

val session_count : t -> int
(** Live sessions (for tests and monitoring). *)

val engine : t -> Bionav_engine.Engine.t
(** The app's engine — so a server can drive engine-level concerns the
    handler does not (warm starts, session sweeps). *)
