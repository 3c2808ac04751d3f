(** Text renderings of the paper's tables and figures over experiment
    results. Each function regenerates one artifact of §VIII; the benchmark
    harness prints them with paper-vs-measured commentary. *)

val table1 : Queries.t -> string
(** Table I: the query workload and its navigation-tree characteristics. *)

val fig8 : Experiment.run list -> string
(** Fig. 8: overall navigation cost (#concepts revealed + #EXPANDs), static
    vs Heuristic-ReducedOpt, with per-query and average improvement. *)

val fig9 : Experiment.run list -> string
(** Fig. 9: number of EXPAND actions per query, both methods. *)

val fig10 : Experiment.run list -> string
(** Fig. 10: average Heuristic-ReducedOpt execution time per EXPAND (ms). *)

val fig11 : Experiment.run -> string
(** Fig. 11: per-EXPAND execution time for one query (the paper shows
    "prothymosin"), annotated with the reduced-tree partition counts. *)

val space_table : Experiment.space_run list -> string
(** The navigation-space comparison: per query, TOPDOWN cost vs the
    refine-hybrid and qualifier-facet routes, with per-row and mean
    savings. *)

(** {2 Machine-readable exports}

    The same data as comma-separated values (header row included), for
    replotting the figures outside the repository. *)

val table1_csv : Queries.t -> string
val fig8_csv : Experiment.run list -> string
val fig9_csv : Experiment.run list -> string
val fig10_csv : Experiment.run list -> string
val fig11_csv : Experiment.run -> string
