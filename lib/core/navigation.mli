(** Navigation sessions: the paper's navigation model (§III) with cost
    accounting.

    A session wraps an active tree and a strategy deciding what an EXPAND
    reveals:

    - [Heuristic]: BioNav proper — Heuristic-ReducedOpt picks the EdgeCut;
    - [Optimal]: exact Opt-EdgeCut (only feasible on small trees);
    - [Static]: the baseline — EXPAND reveals all children (GoPubMed,
      Amazon-style; paper §VIII-A);
    - [Static_paged]: the paper's footnote-2 variant — EXPAND reveals the
      [page_size] highest-count children and a repeated EXPAND on the same
      node acts as the "more" button, revealing the next page (each "more"
      costs one EXPAND action, which is exactly why the footnote argues the
      paged interface does not change the static cost much).

    Cost accounting follows §III: 1 per EXPAND action, 1 per concept
    revealed by an EXPAND, 1 per citation listed by SHOWRESULTS. *)

type strategy =
  | Heuristic of { k : int; model : Probability.model; reuse : bool }
      (** [reuse] keeps the Opt-EdgeCut solution of a component across
          follow-up expansions of its upper subtree (paper §VI-B: the costs
          for all possible [I(n)]s are computed by one run). Off by default
          — the paper's own Fig. 11 timings re-run the heuristic per
          EXPAND; [bench ablation-reuse] quantifies the speedup. [model]
          supplies the EXPLORE/EXPAND probabilities — the paper's static
          §IV estimates by default, or a learned model (see
          [Bionav_adaptive]). *)
  | Faceted of { k : int; model : Probability.model; reuse : bool }
      (** Heuristic-ReducedOpt cuts under the facet-tuned cost model —
          the strategy the engine runs on (descriptor × qualifier) facet
          spaces. Shares the [Heuristic] machinery (plans, budget,
          plan-source injection) but carries a distinct model fingerprint
          prefix (["faceted/"]) so facet cuts never leak into descriptor
          plan caches. *)
  | Optimal of { model : Probability.model }
  | Static
  | Static_paged of { page_size : int }

val bionav :
  ?k:int -> ?params:Probability.params -> ?model:Probability.model -> ?reuse:bool -> unit ->
  strategy
(** [Heuristic] with the paper's defaults (k = 10, thresholds 50/10). An
    explicit [model] wins over [params]; bare [params] wrap into
    {!Probability.static}. *)

val faceted :
  ?k:int -> ?params:Probability.params -> ?model:Probability.model -> ?reuse:bool -> unit ->
  strategy
(** [Faceted] with {!Probability.facet_model} by default (an explicit
    [model] wins over [params], as in {!bionav}). *)

val optimal :
  ?params:Probability.params -> ?model:Probability.model -> unit -> strategy
(** [Optimal] with the same [params]/[model] resolution as {!bionav}. *)

val model_fingerprint : strategy -> string
(** Stable cache identity of the strategy's probability assumptions:
    [model.fingerprint] for model-driven strategies, distinct sentinels
    (["static-interface"], ["static-paged/<n>"]) otherwise. Plan caches
    and snapshots key on this so cuts computed under one model are never
    served to a session running another. *)

type expand_record = {
  node : int;  (** The expanded (visible) navigation node. *)
  n_revealed : int;  (** Concepts revealed by this EXPAND. *)
  elapsed_ms : float;  (** Wall-clock time of the cut computation. *)
  reduced_size : int;
      (** Supernodes fed to Opt-EdgeCut (Heuristic), component size
          (Optimal), or 0 (Static) — the Fig. 11 partition count. *)
  degraded : bool;
      (** The EXPAND budget (see {!set_budget}) was exhausted before the
          cut computation started, so a Static_paged-style top-k cut was
          served instead of Heuristic-ReducedOpt. *)
}

type stats = {
  expands : int;  (** Number of EXPAND actions performed. *)
  revealed : int;  (** Total concepts revealed across all EXPANDs. *)
  results_listed : int;  (** Total citations listed by SHOWRESULTS. *)
  history : expand_record list;  (** Most recent first. *)
}

val navigation_cost : stats -> int
(** [expands + revealed]: the Fig. 8 metric. *)

val total_cost : stats -> int
(** [expands + revealed + results_listed]: the full §III cost. *)

type t

val start : strategy -> Nav_tree.t -> t
val active : t -> Active_tree.t
val strategy : t -> strategy
val stats : t -> stats

type plan_source = {
  find_plan : root:int -> members:Bionav_util.Docset.t -> int list option;
      (** Memoized EdgeCut for the component of [root] whose members (the
          current [I(n)] navigation ids, as a set — key on its
          fingerprint) are exactly [members]; [None] (or [Some []]) to
          fall through to computation.
          The returned cut children must be a valid EdgeCut of that
          component — sources built on exact-key memoization of previously
          computed cuts satisfy this by construction. *)
  store_plan : root:int -> members:Bionav_util.Docset.t -> cut:int list -> unit;
      (** Called after a fresh computation so the source can memoize it. *)
}

val set_plan_source : t -> plan_source option -> unit
(** Inject plans instead of always recomputing: when a source is set, the
    [Heuristic] strategy consults [find_plan] before running
    Heuristic-ReducedOpt and reports every computed cut to [store_plan].
    An injected cut is applied verbatim, with [elapsed_ms = 0] and
    [reduced_size = 0] in the {!expand_record} (no solver ran). Other
    strategies ([Static], [Static_paged], [Optimal]) never consult the
    source — their cuts are either trivial or exact. [None] (the
    {!start} default) restores always-compute. *)

val set_budget : t -> (unit -> unit -> bool) option -> unit
(** Graceful degradation under a time budget. The factory is called once
    at the entry of every EXPAND and returns an over-budget check; when
    the check answers [true] before the cut computation starts, the
    [Heuristic] strategy serves the [k] highest-count hidden children (a
    {!Static_paged}-style cut) instead of running Heuristic-ReducedOpt,
    and the {!expand_record} is tagged [degraded]. A memoized plan (from
    reuse or a {!plan_source}) that answers for free is served even over
    budget and is {e not} degraded; degraded cuts are never reported to
    [store_plan]. Other strategies ignore the budget (their cuts are
    already trivial or explicitly exact). [None] (the {!start} default)
    disables budgeting. *)

val expand : t -> int -> int list
(** EXPAND the component rooted at the given visible node; returns the
    newly revealed navigation nodes (empty for a singleton component, in
    which case nothing is charged). @raise Invalid_argument if the node is
    not visible. *)

val show_results : t -> int -> Bionav_util.Docset.t
(** SHOWRESULTS on a visible node's component: returns (and charges for)
    its distinct citations. *)

val backtrack : t -> bool
(** Undo the last EXPAND. Does not refund cost (the user already paid the
    examinations); decrements nothing. *)
