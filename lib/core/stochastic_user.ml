open Bionav_util

type outcome = {
  expands : int;
  revealed : int;
  results_listed : int;
  total_cost : int;
  stopped_at : int;
}

(* P_x of a visible node's component, per the §IV estimate. *)
let p_expand params active node =
  let nav = Active_tree.nav active in
  let members = Active_tree.component_members active node in
  let distinct = Active_tree.component_distinct active node in
  if Array.length members <= 1 then 0.
  else if distinct > params.Probability.upper_threshold then 1.0
  else if distinct < params.Probability.lower_threshold then 0.0
  else begin
    let weights = Array.map (fun m -> float_of_int (Nav_tree.result_count nav m)) members in
    (* Entropy with the distinct count as denominator, clamped (see
       Probability.expand; duplicated here over active-tree components). *)
    let h = ref 0. and positive = ref 0 in
    Array.iter
      (fun w ->
        if w > 0. then begin
          incr positive;
          let p = w /. float_of_int (max 1 distinct) in
          if p < 1.0 then h := !h -. (p *. log p)
        end)
      weights;
    if !positive < 2 then 0.
    else Float.max 0. (Float.min 1.0 (!h /. log (float_of_int !positive)))
  end

(* Choose among weighted alternatives; [None] with the residual probability
   when the total weight is zero. *)
let pick_weighted rng choices =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. choices in
  if total <= 0. then None
  else begin
    let u = Rng.float rng total in
    let rec go acc = function
      | [] -> None
      | (x, w) :: rest -> if acc +. w >= u then Some x else go (acc +. w) rest
    in
    go 0. choices
  end

let walk ?(params = Probability.default_params) ?(max_steps = 1000) ~rng session =
  let active = Navigation.active session in
  let nav = Active_tree.nav active in
  let current = ref (Nav_tree.root nav) in
  let finished = ref false in
  let steps = ref 0 in
  while (not !finished) && !steps < max_steps do
    incr steps;
    let node = !current in
    let px = p_expand params active node in
    if Active_tree.is_expandable active node && Rng.bernoulli rng px then begin
      let revealed = Navigation.expand session node in
      if revealed = [] then finished := true
      else begin
        (* Continue into the upper component or one of the new ones,
           proportionally to EXPLORE mass. *)
        let choices =
          List.map
            (fun v -> (v, Relevance.component_weight active v))
            (node :: revealed)
        in
        match pick_weighted rng choices with
        | Some next -> current := next
        | None -> finished := true
      end
    end
    else begin
      ignore (Navigation.show_results session node);
      finished := true
    end
  done;
  let stats = Navigation.stats session in
  {
    expands = stats.Navigation.expands;
    revealed = stats.Navigation.revealed;
    results_listed = stats.Navigation.results_listed;
    total_cost = Navigation.total_cost stats;
    stopped_at = !current;
  }

type summary = {
  walks : int;
  mean_cost : float;
  median_cost : float;
  mean_expands : float;
  mean_results : float;
}

let sample ?params ?(walks = 200) ~seed make_session =
  if walks < 1 then invalid_arg "Stochastic_user.sample: walks must be >= 1";
  let rng = Rng.create seed in
  let outcomes = Array.init walks (fun _ -> walk ?params ~rng (make_session ())) in
  let costs = Array.map (fun o -> float_of_int o.total_cost) outcomes in
  {
    walks;
    mean_cost = Stats.mean costs;
    median_cost = Stats.median costs;
    mean_expands = Stats.mean (Array.map (fun o -> float_of_int o.expands) outcomes);
    mean_results = Stats.mean (Array.map (fun o -> float_of_int o.results_listed) outcomes);
  }
