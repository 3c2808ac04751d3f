(** Distinct-result counts over unions of node groups, from one pass.

    The cost model needs [|L(C)|], the number of distinct results held by
    a set [C] of groups, for every subset of at most {!max_parts} groups;
    the groups are the nodes of a small tree or the supernodes of a
    reduced tree. Each result of R, the union of every node's set, has a
    {e signature}: the mask of the groups whose nodes hold it. One pass
    over the nodes' sets ORs [1 lsl part v] into each result's
    signature; counting results per signature and summing over subsets
    (the zeta transform, [parts * 2^parts] additions) gives, for every
    mask [s], the results whose signature lies inside [s]. Then
    [|L(C)| = |R| - within(complement of C)]. No union of sets is ever
    built. *)

type t

val max_parts : int
(** 16: the table has [2^parts] entries. *)

val of_sets : n:int -> set:(int -> Bionav_util.Docset.t) -> part:(int -> int) -> parts:int -> t
(** [of_sets ~n ~set ~part ~parts]: node [v] in [\[0, n)] holds
    [set v] and belongs to group [part v] in [\[0, parts)]. Costs
    O(Σ |set v| + parts * 2^parts).

    When the result ids are dense (their span is at most 2^20, or at
    most 16 times the number of (node, result) pairs), signatures are
    ORed into a per-domain scratch of 16 bits per id and reset through
    the list of ids the pass touched, so the scratch is allocated once
    and grows only with the largest span seen. Scattered ids fall back
    to sorting the (result, group) pairs.
    @raise Invalid_argument if [parts] is outside [\[1, max_parts\]] or
    some [part v] outside [\[0, parts)]. *)

val parts : t -> int

val covered : t -> int
(** [|R|]: distinct results over all groups. *)

val distinct : t -> int -> int
(** [distinct t mask]: distinct results over the groups in [mask]. O(1);
    bits at or beyond [parts] are ignored. *)

val count : t -> int -> int
(** [count t s]: distinct results of group [s] alone. O(1). *)
