(** Per-concept navigation evidence with exponential time-decay.

    One cell per hierarchy concept aggregates how often sessions EXPANDed
    it, SHOWRESULTSed it, or revealed-and-ignored it. Counts age with a
    configurable half-life ("MeSH Concept Relevance and Knowledge
    Evolution": concept relevance drifts, so stale behaviour must stop
    steering cuts); decay is applied {e lazily} on touch, so every
    [observe_*] is O(1) no matter how much time passed — cheap
    enough to call from engine actions under the engine lock. A count
    decayed below [1e-9] snaps to exactly zero, making "fully decayed"
    indistinguishable from "never observed". All operations are
    thread-safe behind an internal mutex (the engine may be driven from
    several domains). *)

type counts = { expands : float; shows : float; ignores : float }

val zero : counts

type t

val create : ?half_life_ms:float -> unit -> t
(** No [half_life_ms] (the default) means evidence never decays.
    @raise Invalid_argument if [half_life_ms <= 0]. *)

val half_life_ms : t -> float option

val observe_expand : t -> now_ms:float -> concept:int -> unit
val observe_show : t -> now_ms:float -> concept:int -> unit
val observe_ignore : t -> now_ms:float -> concept:int -> unit
(** One observation each: the concept's component was expanded, its
    results were listed, or it was revealed to a user who engaged with it
    in no way before the session ended. *)

val counts : t -> now_ms:float -> concept:int -> counts
(** The concept's evidence decayed to [now_ms]; {!zero} when unseen. *)

val fold : t -> now_ms:float -> (int -> counts -> 'a -> 'a) -> 'a -> 'a
(** Fold over every concept with non-zero (post-decay) evidence. *)

val observations : t -> int
(** Raw number of [observe_*] calls — monotone, never decays. *)

val concept_count : t -> now_ms:float -> int
(** Concepts with non-zero evidence after decay to [now_ms]. *)

val clear : t -> unit
