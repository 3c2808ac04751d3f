(** Recording and replaying navigation sessions.

    The original BioNav is a web application whose user actions arrive as
    EXPAND/SHOWRESULTS requests (paper Fig. 7); a reproducible system wants
    those action streams on disk — to replay a user's session against a new
    algorithm version, to turn an interactive exploration into a regression
    test, to audit what a session cost, or to learn empirical
    EXPLORE/EXPAND probabilities from them (see [Bionav_adaptive]). A
    transcript is a text format, one action per line, after a version
    header:

    {v
      # bionav session transcript v2
      expand <concept-id> <n-revealed> <revealed-concept-id>*
      show <concept-id> <n-listed>
      backtrack
      refine <concept-id>
      unrefine
      facet
    v}

    Each line carries the action's {e outcome} — which concepts the
    EXPAND revealed and how many citations the SHOWRESULTS listed — the
    signals an evidence aggregator needs to tell engaged concepts from
    ignored ones. Version 2 is the one version written and read: a file
    whose first action comes before a v2 header (the retired headerless
    v1 format, say) or that carries a header of any other version is
    rejected with an error naming v2. Actions address nodes by
    {e hierarchy concept id} (stable across navigation-tree rebuilds),
    not by navigation-tree node. *)

type action = Expand of int | Show_results of int | Backtrack | Refine of int | Unrefine | Facet

type event =
  | Expanded of { concept : int; revealed : int list }
      (** An effective EXPAND and the concepts it revealed. *)
  | Shown of { concept : int; n_listed : int }
      (** SHOWRESULTS and the number of citations it listed. *)
  | Backtracked
  | Refined of { concept : int }
      (** Query-by-navigation: the session narrowed its result set to the
          subtree of the given concept and re-derived the space. *)
  | Unrefined  (** The session popped the top refinement. *)
  | Faceted  (** The session derived the (descriptor × qualifier) facet space. *)

val action_of_event : event -> action
(** Drop the outcome. *)

type t = action list
(** Chronological. *)

val events_to_string : event list -> string
(** v2 wire format. v2 additionally carries [refine <concept>],
    [unrefine] and [facet] lines for navigation-space changes — still
    wire version 2: v2 readers that predate navigation spaces reject the
    new lines loudly, naming the supported action set. *)

val of_string : string -> t
(** Parse a v2 transcript, dropping outcomes. @raise Invalid_argument on
    malformed lines, a reveal list whose length contradicts its declared
    count, an action before the v2 header, or a header of another
    version (both errors name v2). Comments (['#']) and blank lines are
    ignored. *)

val events_of_string : string -> event list
(** Like {!of_string} but keeps outcomes. *)

val load : string -> t
val save_events : event list -> string -> unit
val load_events : string -> event list

type recorder

val record : Navigation.t -> recorder
(** Wrap a session; drive it through {!expand}, {!show_results} and
    {!backtrack} below to accumulate a transcript. *)

val expand : recorder -> int -> int list
(** Like {!Navigation.expand} (by navigation node), recording the action by
    concept id together with the revealed concepts. No-op expansions
    (nothing revealed) are not recorded. *)

val show_results : recorder -> int -> Bionav_util.Docset.t
val backtrack : recorder -> bool
(** Failed backtracks (nothing to undo) are not recorded. *)

val transcript : recorder -> t
val events : recorder -> event list
(** The v2 view of the recording: actions with their outcomes. *)

type replay_outcome = {
  applied : int;  (** Actions successfully applied. *)
  skipped : int;
      (** Actions that no longer apply (concept absent from this navigation
          tree, not visible, or not expandable). *)
  stats : Navigation.stats;
}

val replay : Navigation.t -> t -> replay_outcome
(** Apply a transcript to a (fresh or ongoing) session, skipping actions
    that do not apply to this tree — transcripts are portable across query
    re-executions and algorithm changes. Space-changing actions
    ([Refine]/[Unrefine]/[Facet]) always skip: a [Navigation.t] is a single
    navigation space, so they replay only at the engine layer. *)
