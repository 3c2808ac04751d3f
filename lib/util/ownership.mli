(** Single-owner discipline for mutable structures shared across domains.

    Docset arenas (and the trees built over them) are deliberately
    unsynchronized: interning, op memos and count memos are plain
    hashtables mutated on the expand hot path. Rather than lock them,
    the concurrency model confines each arena to one domain at a time —
    the engine transfers an arena to the domain that holds the engine
    lock. An [Ownership.t] stamp makes that protocol checkable: the
    structure records its owning domain id, mutators call {!check}, and
    a lock-protected handover calls {!adopt}.

    A stamp can also be {!freeze}d, ending its mutable life entirely.
    Frozen structures belong to no domain: {!check} and {!adopt} raise
    {!Violation} {e unconditionally} — freezing is a published
    invariant, not a debug aid — which makes a frozen structure safe to
    read from any number of domains at once, since no correct code path
    can mutate it anymore. The engine freezes each navigation snapshot's
    arena before publishing it to lock-free readers (DESIGN.md §12).

    Live-state checks are off by default (zero-cost beyond a bool read)
    and enabled in debug builds via the [BIONAV_OWNERSHIP] environment
    variable ([1]/[on]/[true]) or {!set_enforced}. A violation raises
    {!Violation} rather than silently corrupting shared state. *)

exception Violation of string
(** Raised by {!check} when the structure is frozen, or when enforcement
    is on and the calling domain is not the current owner. *)

val self_id : unit -> int
(** The calling domain's id, as stored in stamps. *)

type t

type state =
  | Live of int  (** Mutable, confined to the domain with this id. *)
  | Frozen  (** Immutable forever; readable from any domain. *)

val create : ?name:string -> unit -> t
(** A live stamp owned by the calling domain. [name] labels {!Violation}
    messages (default ["anonymous"]). *)

val owner : t -> int
(** Id of the domain that currently owns the structure. Meaningless once
    frozen (see {!state}). *)

val state : t -> state

val adopt : t -> unit
(** Transfer ownership to the calling domain. Correct only while the
    caller holds whatever lock serializes access to the structure (the
    engine lock); adoption itself is just a stamp update, not a
    synchronization. @raise Violation if the stamp is frozen. *)

val freeze : t -> unit
(** Irreversibly seal the structure. After this, {!check} and {!adopt}
    raise {!Violation} regardless of {!enforced}. The caller must still
    own the structure (or otherwise have exclusive access) when calling:
    freezing is the last mutation. *)

val is_frozen : t -> bool

val check : t -> unit
(** No-op when the stamp is live and either enforcement is off or the
    caller owns it. @raise Violation when frozen (always) or when
    enforcement is on and the caller is a foreign domain. *)

val set_enforced : bool -> unit
(** Toggle live-state enforcement process-wide (tests, debug builds).
    Does not affect frozen stamps, which always raise. *)

val enforced : unit -> bool
