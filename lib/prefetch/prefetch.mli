(** The prefetch facade: one shared {!Plan_cache} wired into navigation
    sessions.

    The engine creates one [t] per shard and {!attach_plans} every new
    Heuristic or Faceted session: the session then consults the plan
    cache before running Heuristic-ReducedOpt and feeds every foreground
    computation back in, so a repeat session of the same query (or a
    warm start, see {!Warmer}) is served cached cuts. *)

type config = { plan_capacity : int  (** Plan-cache LRU capacity (default 512). *) }

val default_config : config

type t

val create : ?config:config -> unit -> t
val plans : t -> Plan_cache.t

val attach_plans : t -> query:string -> Bionav_core.Navigation.t -> unit
(** Set the session's plan source to this cache under [query] and the
    session model's fingerprint. No-op for [Optimal], [Static] and
    [Static_paged] sessions: their cuts are trivial or exact, nothing
    worth memoizing. *)
