(** Seeded session schedules: which query (and which stratum of its
    inputs) each session of a script set runs. *)

val zipf_counts : n:int -> k:int -> int array
(** Sessions per query for a set of [n] under Zipf(1.0) popularity over
    [k] queries (rank 1 = index 0): the largest-remainder rounding of
    [n * p_i]. Sums to [n]. *)

val vdc_order : int -> int array
(** The van der Corput order of [0..c-1] (by bit-reversed rank): every
    prefix of it covers the range about evenly. *)

val zipf_schedule : Bionav_util.Rng.t -> n:int -> k:int -> (int * int) array
(** [(query, stratum)] for each position of a set of [n] sessions: query
    [q] appears [(zipf_counts ~n ~k).(q)] times, spread evenly over the
    schedule from a seeded phase, and its occurrences take strata in
    {!vdc_order}. A run that gets through only a prefix of the schedule
    still sees the full query mix and a spread of strata. *)
