(** Learned EXPLORE/EXPAND probabilities behind the pluggable
    {!Bionav_core.Probability.model} interface.

    The paper fixes its probability estimates a priori (§IV); this module
    closes ROADMAP item 4's loop: per-concept expand/show/ignore evidence
    (live from engine actions, or bulk from {!Bionav_core.Session_log}
    transcripts) is smoothed toward the paper's model as a Bayesian prior
    and materialized into an immutable model value. Each refresh bumps the
    model's fingerprint (["learned/<params>/e<epoch>"]), so every
    fingerprint-keyed plan cache invalidates stale cuts instead of serving
    them.

    Concurrency: [observe_*] are O(1) amortized (an evidence-table-sized
    model rebuild every [refresh_every] observations) and thread-safe —
    designed to be called from engine actions under the engine lock. The
    current model is published through an [Atomic]; readers never block. *)

type config = {
  params : Bionav_core.Probability.params;  (** The prior (static) model. *)
  half_life_ms : float option;
      (** Evidence half-life; [None] (default) never decays. *)
  prior_strength : float;
      (** Pseudo-observation mass of the paper's estimates (default 8):
          how much evidence it takes to move a probability. *)
  explore_boost : float;
      (** Asymptotic EXPLORE-weight multiplier for concepts users always
          engage with (default 4; must be ≥ 1). *)
  refresh_every : int;
      (** Observations between automatic model refreshes (default 64). *)
}

val default_config : config

type t

val create : ?config:config -> ?now_ms:(unit -> float) -> unit -> t
(** [now_ms] (default {!Bionav_util.Timing.now_ms}) is the decay clock —
    tests and the engine inject virtual clocks. The initial model (epoch
    0, no evidence) computes probabilities identical to
    [Probability.static ~params:config.params ()].
    @raise Invalid_argument on invalid [config]. *)

val config : t -> config
val evidence : t -> Evidence.t

val model : t -> Bionav_core.Probability.model
(** The current learned model — an immutable snapshot; hold on to it for
    a session so the session's plans stay internally consistent. *)

val observe_expand : t -> concept:int -> unit
val observe_show : t -> concept:int -> unit
val observe_ignore : t -> concept:int -> unit
(** Online evidence: O(1) amortized, safe under the engine lock. *)

val learn : t -> Bionav_core.Session_log.event list -> unit
(** Bulk-ingest one session transcript and refresh the model. A revealed
    concept the session never engaged with counts as ignored. *)

val refresh : t -> unit
(** Force a model rebuild/publication now (bumps the epoch). *)

val observations : t -> int

val top_concepts : t -> int -> (int * Evidence.counts * float) list
(** The [n] most-engaged concepts with their evidence and EXPLORE lift —
    diagnostics for [bionav learn] and the web status page. *)

val status_text : t -> string
(** Human-readable status (fingerprint, observation/concept counts,
    configuration, top concepts) for CLI/web surfacing. *)
