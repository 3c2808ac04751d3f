open Bionav_core

type config = { plan_capacity : int }

let default_config = { plan_capacity = Plan_cache.default_capacity }

type t = { plans : Plan_cache.t }

let create ?(config = default_config) () =
  { plans = Plan_cache.create ~capacity:config.plan_capacity () }

let plans t = t.plans

let attach_plans t ~query session =
  match Navigation.strategy session with
  | Navigation.Heuristic { model; _ } | Navigation.Faceted { model; _ } ->
      Navigation.set_plan_source session
        (Some
           (Plan_cache.plan_source t.plans ~query
              ~fingerprint:model.Probability.fingerprint))
  | Navigation.Optimal _ | Navigation.Static | Navigation.Static_paged _ -> ()
