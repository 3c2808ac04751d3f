(** Bit-twiddling helpers shared by the mask-based solvers.

    Component and reduced trees are addressed as bitmasks of node indices
    (at most [Cost_model.max_size] = 16 bits in practice, but every
    function here is correct for the full 63-bit OCaml integer range). *)

val popcount : int -> int
(** Number of set bits, by divide-and-conquer (SWAR) rather than a
    per-bit loop: each 32-bit half is folded in five constant-time steps.
    Requires a non-negative argument (all masks are). *)

val lowest_bit : int -> int
(** [lowest_bit m] is the index of the least significant set bit of [m].
    @raise Invalid_argument on 0. *)
