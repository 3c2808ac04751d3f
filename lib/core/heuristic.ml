type report = {
  cut_children : int list;
  reduced_size : int;
  reduced_cost : float;
  elapsed_ms : float;
}

let default_k = 10

type plan = {
  plan_tree : Comp_tree.t;  (* the tree the solver ran on *)
  reduced : Reduced_tree.t option;  (* Some when plan_tree is a reduction *)
  state : Opt_edgecut.state;
  mask : int;  (* plan_tree nodes still in the upper component *)
}

let popcount = Bionav_util.Bits.popcount

let plan_usable plan = popcount plan.mask >= 2

(* Translate plan-tree cut children to original-component-tree indices. *)
let to_original plan cut =
  match plan.reduced with
  | None -> cut
  | Some r -> Reduced_tree.map_cut_children r cut

(* One solver round on the plan's current mask; assumes [plan_usable]. *)
let solve_plan plan =
  let (solution, next_mask), elapsed_ms =
    Bionav_util.Timing.time (fun () ->
        let solution = Opt_edgecut.solve_mask plan.state plan.mask in
        let lowered =
          List.fold_left
            (fun acc v -> acc lor Opt_edgecut.subtree_mask plan.state ~mask:plan.mask v)
            0 solution.Opt_edgecut.cut_children
        in
        (solution, plan.mask land lnot lowered))
  in
  let report =
    {
      cut_children = to_original plan solution.Opt_edgecut.cut_children;
      reduced_size = popcount plan.mask;
      reduced_cost = solution.Opt_edgecut.cost;
      elapsed_ms;
    }
  in
  (report, { plan with mask = next_mask })

let original_tree plan =
  match plan.reduced with None -> plan.plan_tree | Some r -> Reduced_tree.original r

let replan plan = if plan_usable plan then Some (solve_plan plan) else None

let fresh_plan ?model ?(k = default_k) tree =
  if Comp_tree.size tree < 2 then invalid_arg "Heuristic.best_cut: tree must have >= 2 nodes";
  if k < 2 then invalid_arg "Heuristic.best_cut: k must be >= 2";
  if k > Opt_edgecut.max_size then
    invalid_arg
      (Printf.sprintf "Heuristic.best_cut: k = %d exceeds Opt-EdgeCut's limit %d" k
         Opt_edgecut.max_size);
  let plan_tree, reduced =
    if Comp_tree.size tree <= k then (tree, None)
    else
      let reduced = Reduced_tree.build tree (Partition.run_k tree ~k) in
      (Reduced_tree.tree reduced, Some reduced)
  in
  let ctx = Cost_model.create ?model plan_tree in
  { plan_tree; reduced; state = Opt_edgecut.init ctx; mask = Cost_model.full_mask ctx }

let cut_hist = Bionav_util.Metrics.histogram "bionav_heuristic_cut_ms"

let best_cut_with_plan ?model ?k tree =
  let (report, plan), total_ms =
    Bionav_util.Timing.time (fun () ->
        let plan = fresh_plan ?model ?k tree in
        Logs.debug (fun m ->
            m "heuristic: component of %d nodes reduced to %d supernodes"
              (Comp_tree.size tree) (Comp_tree.size plan.plan_tree));
        if plan_usable plan then solve_plan plan
        else
          (* Degenerate partitioning (everything merged into one
             supernode): fall back to cutting every child of the root,
             which is always a valid EdgeCut. The one-supernode plan is
             already exhausted. *)
          ( {
              cut_children = Comp_tree.children tree (Comp_tree.root tree);
              reduced_size = 1;
              reduced_cost = Float.of_int (Comp_tree.size tree);
              elapsed_ms = 0.;
            },
            plan ))
  in
  (* Report the full wall-clock including partitioning. *)
  Bionav_util.Metrics.observe cut_hist total_ms;
  ({ report with elapsed_ms = total_ms }, plan)

let best_cut ?model ?k tree = fst (best_cut_with_plan ?model ?k tree)
