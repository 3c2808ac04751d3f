(** In-memory spans for the traced run.

    A span has a name, a layer, a start, an end and a parent; spans of one
    session or request share a group id. Two kinds exist: {e timed} spans,
    taken by the benchmark around its own calls into a layer, and
    {e attributed} spans, whose duration is a delta of an exact program
    counter ([_sum] of a histogram) read across the enclosing timed span —
    the program records the time, the benchmark records where it happened.
    Attributed spans carry no interval of their own; they are anchored at
    their parent's start.

    Self time is a span's duration minus the part covered by its
    children. {!check} fails the run when the children of a span add up
    to more than the span. *)

type t

val create : unit -> t

val root : int
(** Parent id of a top-level span (-1). *)

val enter : t -> group:int -> parent:int -> layer:string -> string -> int
(** Open a timed span now; returns its id. *)

val leave : t -> int -> unit
(** Close a timed span now. *)

val timed : t -> group:int -> parent:int -> layer:string -> string -> (int -> 'a) -> 'a
(** [enter], run the function with the new id, [leave] (also on
    exceptions). *)

val add_timed :
  t -> group:int -> parent:int -> layer:string -> string -> start_ms:float -> end_ms:float -> int
(** Record a span whose interval was measured elsewhere (for instance in
    another process on the same monotonic clock). *)

val attribute : t -> parent:int -> layer:string -> string -> float -> int
(** Record an attributed child of [parent] with the given duration (ms);
    non-positive durations record nothing and return [-1]. *)

val duration : t -> int -> float

val check : t -> (unit, string) result
(** [Error] naming the first span whose children's total duration exceeds
    its own (with a 1 µs allowance for float rounding). *)

type layer_time = { layer : string; self_ms : float; spans : int }

val self_by_layer : t -> layer_time list
(** Self time summed per layer, largest first. *)

val layer_total_ms : t -> string -> float
(** Sum of the durations of the spans of one layer. *)

val root_total_ms : t -> float
(** Sum of top-level span durations: the workload's blocking time. *)

val write_jsonl : t -> string -> unit
(** Write every span as one JSON object per line. *)
