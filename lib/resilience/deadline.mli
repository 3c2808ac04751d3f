(** Deadlines: a budget of clock time, checked cheaply and often.

    A deadline captures "now + budget" on its clock at {!start}; the
    serving path polls {!expired} at degradation points (e.g. before
    running Heuristic-ReducedOpt inside an EXPAND) and falls back to a
    cheaper answer once the budget is gone. On a simulated clock the
    expiry moment is exact and test-controlled. Expiries observed by
    {!expired} are counted once per deadline in
    [bionav_resilience_deadline_expired_total]. *)

type t

val start : clock:Clock.t -> budget_ms:float -> t
(** @raise Invalid_argument on a negative budget (a zero budget is legal
    and expires immediately — "degrade everything"). *)

val expired : t -> bool
