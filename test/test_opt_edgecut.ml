open Bionav_util
open Bionav_core

let mk parent results totals =
  Comp_tree.make ~parent ~results:(Array.map Docset.of_list results) ~totals ()

let path n =
  (* 0 - 1 - 2 - ... each node holding a few overlapping citations. *)
  mk
    (Array.init n (fun i -> i - 1))
    (Array.init n (fun i -> [ i; i + 1; i + 2 ]))
    (Array.make n 50)

let star k =
  mk
    (Array.init (k + 1) (fun i -> if i = 0 then -1 else 0))
    (Array.init (k + 1) (fun i -> [ i; (i + 1) mod (k + 1); 100 ]))
    (Array.make (k + 1) 50)

let test_count_cuts_path () =
  (* On a path, a valid cut is a single edge: n - 1 cuts. *)
  for n = 2 to 8 do
    Alcotest.(check int) (Printf.sprintf "path %d" n) (n - 1)
      (Opt_edgecut.count_valid_cuts (path n))
  done

let test_count_cuts_star () =
  (* Any non-empty subset of the k leaves. *)
  for k = 1 to 8 do
    Alcotest.(check int) (Printf.sprintf "star %d" k) ((1 lsl k) - 1)
      (Opt_edgecut.count_valid_cuts (star k))
  done

let test_count_cuts_two_level () =
  (* Root -> {1, 2}, 1 -> {3}, 2 -> {4}: options per branch = cut at child,
     cut at grandchild, or nothing = 3; total 3*3 - 1 = 8. *)
  let t = mk [| -1; 0; 0; 1; 2 |] [| [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] |] [| 9; 9; 9; 9; 9 |] in
  Alcotest.(check int) "two-level" 8 (Opt_edgecut.count_valid_cuts t)

let is_antichain tree cut =
  let rec ancestor a b =
    let p = Comp_tree.parent tree b in
    if p = -1 then false else p = a || ancestor a p
  in
  List.for_all (fun a -> List.for_all (fun b -> a = b || not (ancestor a b)) cut) cut

let test_solution_is_valid_cut () =
  List.iter
    (fun tree ->
      let sol = Opt_edgecut.solve tree in
      Alcotest.(check bool) "non-empty" true (sol.Opt_edgecut.cut_children <> []);
      Alcotest.(check bool) "no root" true (not (List.mem 0 sol.Opt_edgecut.cut_children));
      Alcotest.(check bool) "antichain" true (is_antichain tree sol.Opt_edgecut.cut_children))
    [ path 6; star 6; path 2 ]

let test_two_node_tree () =
  let t = mk [| -1; 0 |] [| [ 1 ]; [ 2 ] |] [| 5; 5 |] in
  let sol = Opt_edgecut.solve t in
  Alcotest.(check (list int)) "only cut" [ 1 ] sol.Opt_edgecut.cut_children

(* Cross-check the minimizing recursion against plain enumeration: for every
   subset of non-root nodes that forms a valid antichain, evaluate the cut
   objective with the shared cost function and confirm the solver found the
   minimum. *)
let brute_force_best st ctx =
  let tree = Cost_model.tree ctx in
  let full = Cost_model.full_mask ctx in
  let best = ref infinity in
  for cut_mask = 1 to full do
    if cut_mask land 1 = 0 then begin
      let cut = Cost_model.members ctx cut_mask in
      if is_antichain tree cut then begin
        let lower = List.map (fun v -> Cost_model.subtree_mask ctx ~mask:full v) cut in
        let lowered = List.fold_left ( lor ) 0 lower in
        (* Antichain implies the subtree masks are disjoint. *)
        let upper = full land lnot lowered in
        let cost =
          List.fold_left
            (fun acc m ->
              acc +. 1.
              +. Cost_model.branch_probability ctx ~parent_mask:full ~branch_mask:m
                 *. Opt_edgecut.cost_mask st m)
            (Cost_model.branch_probability ctx ~parent_mask:full ~branch_mask:upper
            *. Opt_edgecut.cost_mask st upper)
            lower
        in
        if cost < !best then best := cost
      end
    end
  done;
  !best

let test_solver_matches_enumeration () =
  let trees =
    [
      path 5;
      star 5;
      mk [| -1; 0; 0; 1; 2; 2 |]
        [| [ 0; 1 ]; [ 1; 2; 3 ]; [ 4; 5 ]; [ 2 ]; [ 5; 6 ]; [ 7 ] |]
        [| 30; 12; 9; 4; 11; 3 |];
      mk [| -1; 0; 1; 2; 0; 4 |]
        [| List.init 20 Fun.id; [ 1; 21 ]; [ 2; 22 ]; [ 3 ]; List.init 15 (fun i -> 30 + i); [ 31 ] |]
        [| 100; 40; 30; 10; 60; 20 |];
    ]
  in
  List.iter
    (fun tree ->
      let ctx = Cost_model.create tree in
      let st = Opt_edgecut.init ctx in
      let sol = Opt_edgecut.solve_mask st (Cost_model.full_mask ctx) in
      let brute = brute_force_best st ctx in
      Alcotest.(check (float 1e-9)) "minimum matches enumeration" brute sol.Opt_edgecut.cost)
    trees

let test_memoized_stable () =
  let tree = star 6 in
  let ctx = Cost_model.create tree in
  let st = Opt_edgecut.init ctx in
  let a = Opt_edgecut.solve_mask st (Cost_model.full_mask ctx) in
  let b = Opt_edgecut.solve_mask st (Cost_model.full_mask ctx) in
  Alcotest.(check (float 1e-12)) "same cost" a.Opt_edgecut.cost b.Opt_edgecut.cost;
  Alcotest.(check (list int)) "same cut" a.Opt_edgecut.cut_children b.Opt_edgecut.cut_children

let test_expected_cost_defined_for_singleton () =
  let t = mk [| -1 |] [| [ 1; 2; 3 ] |] [| 9 |] in
  Alcotest.(check (float 1e-9)) "showresults" 3. (Opt_edgecut.expected_cost t)

let test_expected_cost_small_result_is_show () =
  (* distinct < lower threshold: the user lists results, cost = |L|. *)
  let t = mk [| -1; 0; 0 |] [| [ 0 ]; [ 1 ]; [ 2 ] |] [| 9; 9; 9 |] in
  Alcotest.(check (float 1e-9)) "px = 0" 3. (Opt_edgecut.expected_cost t)

let test_solve_rejects_singleton () =
  let t = mk [| -1 |] [| [ 1 ] |] [| 1 |] in
  Alcotest.(check bool) "singleton rejected" true
    (try
       ignore (Opt_edgecut.solve t);
       false
     with Invalid_argument _ -> true)

let test_solve_rejects_oversize () =
  let n = Opt_edgecut.max_size + 1 in
  let t =
    mk (Array.init n (fun i -> i - 1)) (Array.init n (fun i -> [ i ])) (Array.make n 50)
  in
  Alcotest.(check bool) "oversize rejected" true
    (try
       ignore (Opt_edgecut.solve t);
       false
     with Invalid_argument _ -> true)

let test_expand_cost_monotone () =
  (* Raising the model's EXPAND cost can only raise the expected cost. *)
  let t =
    mk
      [| -1; 0; 0; 0 |]
      [|
        List.init 20 Fun.id;
        List.init 15 (fun i -> 20 + i);
        List.init 15 (fun i -> 35 + i);
        List.init 15 (fun i -> 50 + i);
      |]
      [| 200; 60; 60; 60 |]
  in
  let cost_at e =
    Opt_edgecut.expected_cost
      ~model:
        (Probability.static
           ~params:{ Probability.default_params with Probability.expand_cost = e }
           ())
      t
  in
  Alcotest.(check bool) "monotone in expand cost" true (cost_at 1.0 <= cost_at 16.0)

(* --- differential test against the list-based oracle ------------------- *)

module Oracle = Opt_edgecut_oracle
module A = Bionav_adaptive.Adaptive

(* A random component tree shaped like the solver's real inputs: node
   indices are not in preorder, and some nodes stand for several
   underlying concepts, as supernodes of a reduced tree do. One seed in
   four gives every node the same number of disjoint results and the same
   total instead, so that symmetric cuts tie exactly and the tie-break is
   exercised. *)
let random_tree seed n =
  let rng = Rng.create seed in
  let uniform = seed mod 4 = 0 in
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  let next = ref 0 in
  let results =
    Array.init n (fun _ ->
        let k = if uniform then 6 else 1 + Rng.int rng 24 in
        let l = List.init k (fun j -> !next + j) in
        next := !next + if uniform then k else (k / 2) + 1;
        Docset.of_list l)
  in
  let totals =
    Array.init n (fun i ->
        Docset.cardinal results.(i) * if uniform then 10 else 2 + Rng.int rng 30)
  in
  let multiplicity =
    Array.init n (fun _ -> if (not uniform) && Rng.int rng 3 = 0 then 2 + Rng.int rng 6 else 1)
  in
  let sub_weights =
    Array.mapi
      (fun i m -> Array.init m (fun _ -> float_of_int (1 + Rng.int rng (Docset.cardinal results.(i)))))
      multiplicity
  in
  let sub_concepts = Array.mapi (fun i m -> Array.init m (fun j -> 100 + (8 * i) + j)) multiplicity in
  Comp_tree.make ~parent ~results ~totals
    ~concepts:(Array.init n (fun i -> 100 + (8 * i)))
    ~multiplicity ~sub_weights ~sub_concepts ()

(* A learned model with evidence recorded for some of [random_tree]'s
   concepts. *)
let adaptive_model seed =
  let rng = Rng.create (seed + 1) in
  let ad = A.create ~now_ms:(fun () -> 0.) () in
  for _ = 1 to 40 do
    let concept = 100 + Rng.int rng (8 * Opt_edgecut.max_size) in
    match Rng.int rng 3 with
    | 0 -> A.observe_expand ad ~concept
    | 1 -> A.observe_show ad ~concept
    | _ -> A.observe_ignore ad ~concept
  done;
  A.refresh ad;
  A.model ad

(* The solver and the oracle agree bit for bit on the full mask and on
   each upper component a replan leaves behind, and on the expected cost
   and cut count; the heuristic's replans (no reduction at k = size) walk
   the same sequence. *)
let agrees model tree =
  let same (a : Opt_edgecut.solution) (b : Oracle.solution) =
    a.Opt_edgecut.cut_children = b.Oracle.cut_children && Float.equal a.Opt_edgecut.cost b.Oracle.cost
  in
  let ctx = Cost_model.create ~model tree in
  let st = Opt_edgecut.init ctx and ost = Oracle.init (Cost_model.create ~model tree) in
  let rec chain mask acc =
    if Bits.popcount mask < 2 then Some (List.rev acc)
    else
      let a = Opt_edgecut.solve_mask st mask and b = Oracle.solve_mask ost mask in
      if not (same a b) then None
      else
        let lowered =
          List.fold_left
            (fun l v -> l lor Cost_model.subtree_mask ctx ~mask v)
            0 b.Oracle.cut_children
        in
        chain (mask land lnot lowered) ((b.Oracle.cut_children, b.Oracle.cost) :: acc)
  in
  let rec replans plan acc =
    match Heuristic.replan plan with
    | None -> List.rev acc
    | Some (r, plan) ->
        replans plan ((r.Heuristic.cut_children, r.Heuristic.reduced_cost) :: acc)
  in
  let heuristic () =
    let r, plan = Heuristic.best_cut_with_plan ~model ~k:(Comp_tree.size tree) tree in
    replans plan [ (r.Heuristic.cut_children, r.Heuristic.reduced_cost) ]
  in
  let same_steps =
    List.equal (fun (c, x) (c', x') -> c = c' && Float.equal x x')
  in
  match chain (Cost_model.full_mask ctx) [] with
  | None -> false
  | Some steps ->
      same_steps steps (heuristic ())
      (* [Oracle.expected_cost] is this lookup on a fresh state; reusing
         [ost] saves a second exponential oracle run. *)
      && Float.equal
           (Opt_edgecut.expected_cost ~model tree)
           (Oracle.cost_mask ost (Cost_model.full_mask ctx))
      && Opt_edgecut.count_valid_cuts tree = Oracle.count_valid_cuts tree

let differential ~name ~count ~sizes =
  QCheck.Test.make ~name ~count
    QCheck.(pair sizes (int_range 0 100_000))
    (fun (n, seed) ->
      let tree = random_tree seed n in
      List.for_all
        (fun model -> agrees model tree)
        [ Probability.default_model; Probability.facet_model; adaptive_model seed ])

let qcheck_differential =
  differential ~name:"dense solver = list oracle (2-12 nodes)" ~count:200
    ~sizes:(QCheck.int_range 2 12)

let qcheck_differential_max =
  differential ~name:"dense solver = list oracle (16 nodes)" ~count:3
    ~sizes:(QCheck.always Opt_edgecut.max_size)

(* --- mask validation ----------------------------------------------------- *)

let rejects f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_rejects_bad_masks () =
  (* 0 -> {1, 2}, 1 -> {3} *)
  let t = mk [| -1; 0; 0; 1 |] [| [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] |] [| 9; 9; 9; 9 |] in
  let st = Opt_edgecut.init (Cost_model.create t) in
  List.iter
    (fun (what, mask) ->
      Alcotest.(check bool) ("solve_mask " ^ what) true
        (rejects (fun () -> Opt_edgecut.solve_mask st mask));
      Alcotest.(check bool) ("cost_mask " ^ what) true
        (rejects (fun () -> Opt_edgecut.cost_mask st mask)))
    [
      ("empty", 0);
      ("negative", -1);
      ("min_int", min_int);
      ("just past the tree", 1 lsl 4);
      ("valid plus an outside bit", 0b1111 lor (1 lsl 20));
      ("not connected", 0b1001);
    ];
  Alcotest.(check bool) "subtree_mask node outside" true
    (rejects (fun () -> Opt_edgecut.subtree_mask st ~mask:0b0011 2));
  Alcotest.(check int) "subtree_mask" 0b1010 (Opt_edgecut.subtree_mask st ~mask:0b1111 1);
  Alcotest.(check bool) "valid mask accepted" true
    (Float.is_finite (Opt_edgecut.cost_mask st 0b1011))

let test_init_rejects_oversize () =
  let n = Opt_edgecut.max_size + 1 in
  let t = mk (Array.init n (fun i -> i - 1)) (Array.init n (fun i -> [ i ])) (Array.make n 50) in
  Alcotest.(check bool) "init rejects" true
    (rejects (fun () -> Opt_edgecut.init (Cost_model.create t)))

let () =
  Alcotest.run "opt_edgecut"
    [
      ( "cuts",
        [
          Alcotest.test_case "count path" `Quick test_count_cuts_path;
          Alcotest.test_case "count star" `Quick test_count_cuts_star;
          Alcotest.test_case "count two-level" `Quick test_count_cuts_two_level;
          Alcotest.test_case "solution valid" `Quick test_solution_is_valid_cut;
          Alcotest.test_case "two-node tree" `Quick test_two_node_tree;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "matches enumeration" `Quick test_solver_matches_enumeration;
          Alcotest.test_case "memo stable" `Quick test_memoized_stable;
          Alcotest.test_case "singleton expected cost" `Quick test_expected_cost_defined_for_singleton;
          Alcotest.test_case "small result shows" `Quick test_expected_cost_small_result_is_show;
          Alcotest.test_case "expand cost monotone" `Quick test_expand_cost_monotone;
        ] );
      ( "guards",
        [
          Alcotest.test_case "rejects singleton" `Quick test_solve_rejects_singleton;
          Alcotest.test_case "rejects oversize" `Quick test_solve_rejects_oversize;
          Alcotest.test_case "rejects bad masks" `Quick test_rejects_bad_masks;
          Alcotest.test_case "init rejects oversize" `Quick test_init_rejects_oversize;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest [ qcheck_differential; qcheck_differential_max ] );
    ]
