(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VIII) on the synthetic substrate, runs the ablations called
   out in DESIGN.md, machine-checks the Theorem 1 reduction, and times the
   core operations with Bechamel.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe <target> ...    run selected targets:
       table1 fig8 fig9 fig10 fig11 ablation-opt ablation-k
       ablation-expandcost theorem1 micro ...
     bench/main.exe serve --smoke    reduced CI size for file-writing targets *)

open Bionav_util
open Bionav_core
module Engine = Bionav_engine.Engine
module Q = Bionav_workload.Queries
module E = Bionav_workload.Experiment
module R = Bionav_workload.Report
module Npc_mes = Bionav_npc.Mes
module Npc_red = Bionav_npc.Reduction

let workload_seed = 11

(* Set by the [--smoke] flag: shrink file-writing benches to CI size. *)
let smoke_mode = ref false

let workload = lazy (Q.build ~seed:workload_seed ())

(* The paper's per-EXPAND times are cold solves, but a tree keeps its
   root reduction once a root EXPAND has filled it. So a timed run gets
   trees of its own ([own_trees], rebuilt from the database, whose slots
   are empty) and [cold] checks that none of its root EXPANDs reused a
   reduction. *)
let cold what f =
  let reuses () = Metrics.value (Metrics.counter "bionav_root_reduction_reuses_total") in
  let before = reuses () in
  let r = f () in
  if reuses () <> before then
    failwith (Printf.sprintf "bench %s: a timed root EXPAND reused a memoized reduction" what);
  r

let own_tree (w : Q.t) q = { q with Q.nav = Nav_tree.of_database w.Q.database q.Q.result }
let own_trees (w : Q.t) = { w with Q.queries = List.map (own_tree w) w.Q.queries }

(* Figs. 10-11: each query's one bionav session is the first on its tree. *)
let runs = lazy (cold "fig10/fig11" (fun () -> E.run_all (own_trees (Lazy.force workload))))

let say fmt = Printf.printf (fmt ^^ "\n%!")

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* A JSON object from fields whose values are already JSON text; [indent]
   is the indentation of the line the object starts on. *)
let json_obj ?(indent = "") fields =
  Printf.sprintf "{\n%s\n%s}"
    (String.concat ",\n"
       (List.map (fun (k, v) -> Printf.sprintf "%s  \"%s\": %s" indent k v) fields))
    indent

let json_string s = Printf.sprintf "\"%s\"" (String.escaped s)

let commit =
  lazy
    (match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"))

(* Write a BENCH_*.json artifact, stamped with what produced it: the
   commit, the core count, the compiler and whether it ran at --smoke
   size, so numbers from different machines or sizes are never confused. *)
let write_bench_json path fields =
  let stamp =
    [
      ("commit", json_string (Lazy.force commit));
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("smoke", string_of_bool !smoke_mode);
    ]
  in
  write_file path (json_obj (stamp @ fields) ^ "\n");
  say "  wrote %s" path

let paper_note lines =
  List.iter (fun l -> say "  | %s" l) lines;
  say ""

(* ------------------------------------------------------------------ *)
(* Table I and Figs. 8-11                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  print_string (R.table1 (Lazy.force workload));
  say "";
  paper_note
    [
      "Paper Table I: 10 PubMed queries, 110-713 results, navigation trees";
      "of a few thousand nodes (3,940 for prothymosin) with heavy duplication";
      "(30,895 attached citations for 313 distinct), targets at MeSH levels";
      "2-6 with L(target) well below LT(target).";
    ]

let fig8 () =
  print_string (R.fig8 (Lazy.force runs));
  say "";
  paper_note
    [
      "Paper Fig. 8: BioNav beats static navigation on every query, often by";
      "an order of magnitude; average improvement 85%, minimum 67% for the";
      "'ice nucleation' query (shallow, low-selectivity target).";
    ]

let fig9 () =
  print_string (R.fig9 (Lazy.force runs));
  say "";
  paper_note
    [
      "Paper Fig. 9: EXPAND counts are close for the two methods (so Fig. 8's";
      "gap comes from selective reveals, not fewer clicks); worst case is";
      "'ice nucleation' with 8 BioNav expands vs 3 static.";
    ]

let fig10 () =
  print_string (R.fig10 (Lazy.force runs));
  say "";
  paper_note
    [
      "Paper Fig. 10: average Heuristic-ReducedOpt time per EXPAND is tens to";
      "a few hundred ms (2008 hardware, Java/Oracle); dominated by the";
      "exponential Opt-EdgeCut on the <= 10-supernode reduced tree.";
    ]

let fig11 () =
  let all = Lazy.force runs in
  let prothymosin =
    List.find
      (fun r -> r.E.query.Q.spec.Q.name = "prothymosin")
      all
  in
  print_string (R.fig11 prothymosin);
  say "";
  paper_note
    [
      "Paper Fig. 11: per-EXPAND times for 'prothymosin' fall from ~240 ms to";
      "~60 ms across 5 expansions (reduced trees of 6-10 partitions): the";
      "MeSH hierarchy narrows as navigation descends.";
    ]

(* ------------------------------------------------------------------ *)
(* Footnote 2: the paged static interface                              *)
(* ------------------------------------------------------------------ *)

let baseline_paged () =
  say "%s" (Table.section "Footnote 2: paged static interface ('more' button)");
  say "";
  say "The paper's footnote 2 argues a paged interface \"does not considerably";
  say "change\" the static cost. Under the oracle protocol we measure the";
  say "opposite: count-ranked pages of 10 find the (high-count) path nodes";
  say "early, so paging helps a target-seeking user substantially - though";
  say "BioNav still wins on most queries, and unlike paging it also prunes by";
  say "selectivity and skips levels. An honest deviation, recorded in";
  say "EXPERIMENTS.md.";
  say "";
  let w = Lazy.force workload in
  let rows =
    List.map
      (fun q ->
        let static = E.run_strategy q Navigation.Static in
        let paged = E.run_strategy q (Navigation.Static_paged { page_size = 10 }) in
        let bionav = E.run_strategy q (Navigation.bionav ()) in
        [
          q.Q.spec.Q.name;
          string_of_int static.Simulate.navigation_cost;
          string_of_int paged.Simulate.navigation_cost;
          string_of_int bionav.Simulate.navigation_cost;
        ])
      w.Q.queries
  in
  print_string
    (Table.render ~header:[ "Query"; "Static"; "Paged(10)"; "BioNav" ]
       [ Table.Left; Right; Right; Right ]
       rows);
  say ""

(* ------------------------------------------------------------------ *)
(* Stability: Fig. 8 across independent corpora                         *)
(* ------------------------------------------------------------------ *)

let stability () =
  say "%s" (Table.section "Stability: average improvement across independent corpora");
  say "";
  say "The paper evaluates one MEDLINE snapshot; the synthetic substrate lets";
  say "us rebuild the whole world from different seeds and check that the";
  say "headline number is not a seed artifact.";
  say "";
  let seeds = [ 11; 23; 37; 51; 73 ] in
  let improvements =
    List.map
      (fun seed ->
        let w = if seed = workload_seed then Lazy.force workload else Q.build ~seed () in
        let rs = E.run_all w in
        let imp = 100. *. E.average_improvement rs in
        say "  seed %3d: average improvement %.0f%%" seed imp;
        imp)
      seeds
  in
  let arr = Array.of_list improvements in
  say "";
  say "  mean %.1f%%  stddev %.1f%%  (paper: 85%%)" (Stats.mean arr) (Stats.stddev arr);
  say ""

(* ------------------------------------------------------------------ *)
(* Ablation A: heuristic vs Opt-EdgeCut on small trees                 *)
(* ------------------------------------------------------------------ *)

let random_comp_tree seed n =
  let rng = Rng.create seed in
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  let next = ref 0 in
  let results =
    Array.init n (fun _ ->
        let k = 1 + Rng.int rng 9 in
        let l = List.init k (fun j -> !next + j) in
        next := !next + (k / 2) + 1;
        Docset.of_list l)
  in
  let totals = Array.init n (fun i -> Docset.cardinal results.(i) * (2 + Rng.int rng 25)) in
  Comp_tree.make ~parent ~results ~totals ()

(* Objective value of an explicit first cut under the shared cost model. *)
let evaluate_cut st ctx cut_children =
  let full = Cost_model.full_mask ctx in
  let lower = List.map (fun v -> Cost_model.subtree_mask ctx ~mask:full v) cut_children in
  let lowered = List.fold_left ( lor ) 0 lower in
  let upper = full land lnot lowered in
  List.fold_left
    (fun acc m ->
      acc +. 1.
      +. (Cost_model.branch_probability ctx ~parent_mask:full ~branch_mask:m
         *. Opt_edgecut.cost_mask st m))
    (Cost_model.branch_probability ctx ~parent_mask:full ~branch_mask:upper
    *. Opt_edgecut.cost_mask st upper)
    lower

let ablation_opt () =
  say "%s" (Table.section "Ablation A: Heuristic-ReducedOpt vs Opt-EdgeCut (small trees)");
  say "";
  say "The paper could not evaluate Opt-EdgeCut beyond ~10 nodes; here both";
  say "run on random 6-12-node component trees and the heuristic's first-cut";
  say "objective is compared with the optimum (k = 6 forces real reduction).";
  say "";
  let trials = 200 in
  let ratios = ref [] in
  let optimal_hits = ref 0 in
  for seed = 1 to trials do
    let n = 6 + (seed mod 7) in
    let tree = random_comp_tree seed n in
    let ctx = Cost_model.create tree in
    let st = Opt_edgecut.init ctx in
    let opt = Opt_edgecut.solve_mask st (Cost_model.full_mask ctx) in
    let heur = Heuristic.best_cut ~k:6 tree in
    let heur_obj = evaluate_cut st ctx heur.Heuristic.cut_children in
    if heur_obj <= opt.Opt_edgecut.cost +. 1e-9 then incr optimal_hits;
    ratios := (heur_obj /. opt.Opt_edgecut.cost) :: !ratios
  done;
  let rs = Array.of_list !ratios in
  say "  trials:                     %d" trials;
  say "  heuristic found optimum:    %d (%.0f%%)" !optimal_hits
    (100. *. float_of_int !optimal_hits /. float_of_int trials);
  say "  mean cost ratio (heur/opt): %.3f" (Stats.mean rs);
  say "  95th percentile ratio:      %.3f" (Stats.percentile rs 95.);
  say "  worst ratio:                %.3f" (Stats.maximum rs);
  say ""

(* ------------------------------------------------------------------ *)
(* Ablation B: reduction budget k                                      *)
(* ------------------------------------------------------------------ *)

let ablation_k () =
  say "%s" (Table.section "Ablation B: effect of the reduction budget k");
  say "";
  say "The paper fixes k = 10 (the largest reduced tree Opt-EdgeCut handles";
  say "in real time). Sweeping k trades navigation quality for EXPAND time.";
  say "";
  let w = Lazy.force workload in
  let rows =
    List.map
      (fun k ->
        let rs = cold "ablation-k" (fun () -> E.run_all ~k (own_trees w)) in
        let improvement = 100. *. E.average_improvement rs in
        let mean_ms =
          Stats.mean (Array.of_list (List.map (fun r -> E.mean_expand_ms r.E.bionav) rs))
        in
        let mean_expands =
          Stats.mean
            (Array.of_list (List.map (fun r -> float_of_int r.E.bionav.Simulate.expands) rs))
        in
        [
          string_of_int k;
          Printf.sprintf "%.0f%%" improvement;
          Printf.sprintf "%.1f" mean_expands;
          Printf.sprintf "%.2f ms" mean_ms;
        ])
      [ 4; 6; 8; 10; 12; 14; 16 ]
  in
  print_string
    (Table.render
       ~header:[ "k"; "avg improvement"; "avg EXPANDs"; "avg time/EXPAND" ]
       [ Table.Right; Right; Right; Right ]
       rows);
  say ""

(* ------------------------------------------------------------------ *)
(* Ablation C: the EXPAND model-cost constant                          *)
(* ------------------------------------------------------------------ *)

let ablation_expandcost () =
  say "%s" (Table.section "Ablation C: EXPAND model cost vs reveal width (paper SIII remark)");
  say "";
  say "\"Increasing this cost leads to more concepts revealed for each";
  say "EXPAND.\" The sweep regenerates that trade-off under the conditional";
  say "cost recursion (default 16, see DESIGN.md).";
  say "";
  let w = Lazy.force workload in
  let rows =
    List.map
      (fun ec ->
        let params = { Probability.default_params with Probability.expand_cost = ec } in
        let rs = E.run_all ~params w in
        let improvement = 100. *. E.average_improvement rs in
        let expands =
          Stats.mean
            (Array.of_list (List.map (fun r -> float_of_int r.E.bionav.Simulate.expands) rs))
        in
        let revealed =
          Stats.mean
            (Array.of_list (List.map (fun r -> float_of_int r.E.bionav.Simulate.revealed) rs))
        in
        let per_expand = if expands > 0. then revealed /. expands else 0. in
        [
          Printf.sprintf "%.0f" ec;
          Printf.sprintf "%.0f%%" improvement;
          Printf.sprintf "%.1f" expands;
          Printf.sprintf "%.1f" per_expand;
        ])
      [ 1.; 2.; 4.; 8.; 16.; 32. ]
  in
  print_string
    (Table.render
       ~header:[ "expand cost"; "avg improvement"; "avg EXPANDs"; "reveals/EXPAND" ]
       [ Table.Right; Right; Right; Right ]
       rows);
  say ""

(* ------------------------------------------------------------------ *)
(* Ablation D: plan reuse across expansions (paper SVI-B remark)       *)
(* ------------------------------------------------------------------ *)

let ablation_reuse () =
  say "%s" (Table.section "Ablation D: Opt-EdgeCut plan reuse (paper SVI-B remark)");
  say "";
  say "\"Once Opt-EdgeCut is executed for T, the costs (and optimal EdgeCuts)";
  say "for all possible I(n)s are also computed and hence there is no need to";
  say "call the algorithm again for subsequent expansions.\" Follow-up";
  say "expansions of an upper component become memo lookups:";
  say "";
  let w = Lazy.force workload in
  (* Both sessions' root EXPANDs are cold, so only plan reuse differs. *)
  let rows =
    List.map
      (fun q ->
        let fresh, reused =
          cold "ablation-reuse" (fun () ->
              ( E.run_strategy (own_tree w q) (Navigation.bionav ()),
                E.run_strategy (own_tree w q) (Navigation.bionav ~reuse:true ()) ))
        in
        [
          q.Q.spec.Q.name;
          Printf.sprintf "%.2f ms" (E.mean_expand_ms fresh);
          Printf.sprintf "%.2f ms" (E.mean_expand_ms reused);
          string_of_int fresh.Simulate.navigation_cost;
          string_of_int reused.Simulate.navigation_cost;
        ])
      w.Q.queries
  in
  print_string
    (Table.render
       ~header:[ "Query"; "fresh ms/EXPAND"; "reuse ms/EXPAND"; "fresh cost"; "reuse cost" ]
       [ Table.Left; Right; Right; Right; Right ]
       rows);
  say "";
  say "Reuse trades per-EXPAND latency for granularity: follow-up cuts of the";
  say "upper subtree stay at the original supernode resolution instead of";
  say "re-partitioning the shrunken component (the paper's Fig. 11 timings";
  say "show their system re-ran the heuristic each time, our default).";
  say ""

(* ------------------------------------------------------------------ *)
(* Theorem 1: executable MES -> TED reduction                          *)
(* ------------------------------------------------------------------ *)

let theorem1 () =
  say "%s" (Table.section "Theorem 1: MAXIMUM EDGE SUBGRAPH <=p TED (executable check)");
  say "";
  say "For random weighted graphs, the optimal MES weight must equal the";
  say "optimal within-component duplicate count of the reduced TED instance";
  say "(star navigation tree, w shared elements per edge of weight w).";
  say "";
  let rng = Rng.create 2009 in
  let checked = ref 0 and ok = ref 0 in
  for n = 2 to 7 do
    for _ = 1 to 20 do
      let g = Npc_mes.random rng ~n_vertices:n ~edge_prob:0.5 ~max_weight:5 in
      for k = 1 to n - 1 do
        incr checked;
        if Npc_red.verify_equivalence g ~k then incr ok
      done
    done
  done;
  say "  instances checked: %d (graphs up to 7 vertices, all k)" !checked;
  say "  equivalences held: %d" !ok;
  if !checked <> !ok then say "  *** MISMATCH: the reduction is broken ***";
  say "";
  (* One worked example. *)
  let g = Npc_mes.make ~n_vertices:4 ~edges:[ (0, 1, 3); (1, 2, 2); (2, 3, 4); (0, 3, 1) ] in
  let subset, w = Npc_mes.solve g ~k:2 in
  let ted, j = Npc_red.reduce g ~k:2 in
  let dup = Option.get (Bionav_npc.Ted.best_duplicates ted ~components:j) in
  say "  example: C4 with weights 3,2,4,1; k = 2";
  say "    MES optimum: vertices {%s}, weight %d"
    (String.concat "," (List.map string_of_int subset))
    w;
  say "    TED optimum with %d components: %d duplicates" j dup;
  say ""

(* ------------------------------------------------------------------ *)
(* Monte-Carlo: the stochastic SIII user                                *)
(* ------------------------------------------------------------------ *)

let montecarlo () =
  say "%s" (Table.section "Monte-Carlo: expected session cost of the stochastic SIII user");
  say "";
  say "The oracle protocol (Fig. 8) fixes a target. Sampling the cost";
  say "model's own probabilistic user (explore ~ P_e, keep expanding ~ P_x)";
  say "measures the expected cost the EdgeCut optimization claims to";
  say "minimize, with no target assumed (200 users per query/strategy).";
  say "";
  let w = Lazy.force workload in
  let rows =
    List.map
      (fun q ->
        let run strategy =
          Stochastic_user.sample ~walks:200 ~seed:5 (fun () -> Engine.start strategy q.Q.nav)
        in
        let st = run Navigation.Static in
        let bn = run (Navigation.bionav ()) in
        [
          q.Q.spec.Q.name;
          Printf.sprintf "%.0f" st.Stochastic_user.mean_cost;
          Printf.sprintf "%.0f" bn.Stochastic_user.mean_cost;
          Printf.sprintf "%.0f%%"
            (100. *. (1. -. (bn.Stochastic_user.mean_cost /. st.Stochastic_user.mean_cost)));
        ])
      w.Q.queries
  in
  print_string
    (Table.render
       ~header:[ "Query"; "static E[cost]"; "bionav E[cost]"; "improvement" ]
       [ Table.Left; Right; Right; Right ]
       rows);
  say ""

(* ------------------------------------------------------------------ *)
(* Ablation F: the P_x thresholds (paper SIV: 50 and 10)                *)
(* ------------------------------------------------------------------ *)

let ablation_thresholds () =
  say "%s" (Table.section "Ablation F: EXPAND-probability thresholds (paper SIV: 50/10)");
  say "";
  let w = Lazy.force workload in
  let rows =
    List.map
      (fun (upper, lower) ->
        let params =
          { Probability.default_params with
            Probability.upper_threshold = upper; lower_threshold = lower }
        in
        let rs = E.run_all ~params w in
        [
          Printf.sprintf "%d / %d" upper lower;
          Printf.sprintf "%.0f%%" (100. *. E.average_improvement rs);
          Printf.sprintf "%.1f"
            (Stats.mean
               (Array.of_list
                  (List.map (fun r -> float_of_int r.E.bionav.Simulate.expands) rs)));
        ])
      [ (25, 5); (50, 10); (100, 20); (200, 40) ]
  in
  print_string
    (Table.render
       ~header:[ "upper/lower"; "avg improvement"; "avg EXPANDs" ]
       [ Table.Left; Right; Right ]
       rows);
  say ""

(* ------------------------------------------------------------------ *)
(* Ablation E: query-concept selectivity realism                       *)
(* ------------------------------------------------------------------ *)

let ablation_selectivity () =
  say "%s" (Table.section "Ablation E: research-line selectivity (organic literature mass)");
  say "";
  say "The workload plants untagged citations about each query's research";
  say "lines (organic_mult per tagged one); organic_mult = 0 makes every line";
  say "concept maximally selective (L ~ LT), concentrating the EXPLORE mass -";
  say "the regime where a naive expected-cost reading of the paper's formula";
  say "degenerates to one-concept reveals (see DESIGN.md). Under the shipped";
  say "conditional recursion the sweep is flat: the algorithm is robust to";
  say "selectivity skew in the corpus.";
  say "";
  let rows =
    List.map
      (fun mult ->
        let config = { Q.default_config with Q.organic_mult = mult } in
        let w =
          if mult = Q.default_config.Q.organic_mult then Lazy.force workload
          else Q.build ~config ~seed:workload_seed ()
        in
        let rs = E.run_all w in
        let expands =
          Stats.mean
            (Array.of_list (List.map (fun r -> float_of_int r.E.bionav.Simulate.expands) rs))
        in
        let revealed =
          Stats.mean
            (Array.of_list (List.map (fun r -> float_of_int r.E.bionav.Simulate.revealed) rs))
        in
        [
          string_of_int mult;
          Printf.sprintf "%.0f%%" (100. *. E.average_improvement rs);
          Printf.sprintf "%.1f" expands;
          Printf.sprintf "%.1f" (if expands > 0. then revealed /. expands else 0.);
        ])
      [ 0; 1; 3; 6 ]
  in
  print_string
    (Table.render
       ~header:[ "organic_mult"; "avg improvement"; "avg EXPANDs"; "reveals/EXPAND" ]
       [ Table.Right; Right; Right; Right ]
       rows);
  say ""

(* ------------------------------------------------------------------ *)
(* Corpus calibration                                                  *)
(* ------------------------------------------------------------------ *)

let calibration () =
  say "%s" (Table.section "Corpus calibration vs paper/MeSH/MEDLINE statistics");
  say "";
  let w = Lazy.force workload in
  let report = Bionav_corpus.Calibration.compute w.Q.medline in
  say "%s" (Format.asprintf "%a" Bionav_corpus.Calibration.pp report);
  say "";
  List.iter
    (fun (name, ok) -> say "  [%s] %s" (if ok then "ok" else "MISS") name)
    (Bionav_corpus.Calibration.within_paper_bands report);
  say ""

(* ------------------------------------------------------------------ *)
(* The exponential wall of Opt-EdgeCut                                 *)
(* ------------------------------------------------------------------ *)

let opt_wall () =
  say "%s" (Table.section "Opt-EdgeCut's exponential wall (paper SVIII-A)");
  say "";
  say "\"The optimal algorithm, Opt-EdgeCut, was not evaluated, because its";
  say "execution times are prohibiting even for relatively small (e.g., 30";
  say "nodes) navigation trees.\" Reproduced: time per solve vs tree size";
  say "(random trees, averaged over 5 instances; cuts counted on one).";
  say "";
  let rows =
    List.map
      (fun n ->
        let times =
          Array.init 5 (fun i ->
              let tree = random_comp_tree ((n * 100) + i) n in
              let (_ : Opt_edgecut.solution), ms =
                Timing.time (fun () -> Opt_edgecut.solve tree)
              in
              ms)
        in
        let cuts = Opt_edgecut.count_valid_cuts (random_comp_tree (n * 100) n) in
        [
          string_of_int n;
          string_of_int cuts;
          Printf.sprintf "%.3f ms" (Stats.mean times);
          Printf.sprintf "%.3f ms" (Stats.maximum times);
        ])
      [ 6; 8; 10; 12; 14; 16 ]
  in
  print_string
    (Table.render
       ~header:[ "nodes"; "valid root cuts"; "mean solve"; "max solve" ]
       [ Table.Right; Right; Right; Right ]
       rows);
  say "";
  say "Each +2 nodes multiplies the work severalfold; at the paper's 30-node";
  say "example the enumeration is out of reach, which is what motivates the";
  say "k-partition reduction (Heuristic-ReducedOpt runs on <= 10 supernodes).";
  say ""

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  say "%s" (Table.section "Bechamel micro-benchmarks (core operations)");
  say "";
  (* Small-scale fixtures so the whole suite stays fast. *)
  let small = Q.build ~config:Q.small_config ~seed:7 () in
  let q = List.hd small.Q.queries in
  let nav = q.Q.nav in
  let active = Active_tree.create nav in
  let comp, _ = Active_tree.comp_tree active 0 in
  let opt_tree = random_comp_tree 3 10 in
  let sets =
    List.init 32 (fun i -> Docset.of_list (List.init 100 (fun j -> (i * 37) + j)))
  in
  (* Paper scale: the full-size prothymosin tree, its root component and
     its first root child's subtree set (a refinement's S). *)
  let w = Lazy.force workload in
  let prothymosin = List.find (fun q -> q.Q.spec.Q.name = "prothymosin") w.Q.queries in
  let large = fst (Active_tree.comp_tree (Active_tree.create prothymosin.Q.nav) 0) in
  let refined =
    Nav_tree.subtree_results prothymosin.Q.nav
      (List.hd (Nav_tree.children prothymosin.Q.nav (Nav_tree.root prothymosin.Q.nav)))
  in
  let large_part = Partition.run_k large ~k:10 in
  (* One root EXPAND fills [nav]'s root-reduction slot for the warm row. *)
  ignore (Navigation.expand (Engine.start (Navigation.bionav ()) nav) 0 : int list);
  let tests =
    [
      (* Table I path: building the navigation tree from the database. *)
      Test.make ~name:"table1/nav-tree-build"
        (Staged.stage (fun () -> ignore (Nav_tree.of_database small.Q.database q.Q.result)));
      Test.make ~name:"table1/nav-tree-build-large"
        (Staged.stage (fun () ->
             ignore (Nav_tree.of_database w.Q.database prothymosin.Q.result)));
      Test.make ~name:"table1/nav-tree-restrict-large"
        (Staged.stage (fun () -> ignore (Nav_tree.restrict prothymosin.Q.nav refined)));
      (* Fig. 8 path: one full oracle navigation per strategy. *)
      Test.make ~name:"fig8/bionav-navigate"
        (Staged.stage (fun () ->
             ignore
               (Simulate.to_target
                  (Engine.start (Navigation.bionav ()) nav)
                  ~target:q.Q.target_node)));
      Test.make ~name:"fig8/static-navigate"
        (Staged.stage (fun () ->
             ignore
               (Simulate.to_target (Engine.start Navigation.Static nav)
                  ~target:q.Q.target_node)));
      (* Figs. 10/11 path: a single EXPAND's cut computation and its parts. *)
      Test.make ~name:"fig10/heuristic-best-cut"
        (Staged.stage (fun () -> ignore (Heuristic.best_cut comp)));
      Test.make ~name:"fig10/root-expand-warm"
        (Staged.stage (fun () ->
             match Nav_tree.root_reduction nav with
             | Some (_, comp, reduction) -> ignore (Heuristic.best_cut_with_plan ?reduction comp)
             | None -> failwith "micro: the root-reduction slot is empty"));
      Test.make ~name:"fig11/k-partition"
        (Staged.stage (fun () -> ignore (Partition.run_k comp ~k:10)));
      Test.make ~name:"fig10/k-partition-large"
        (Staged.stage (fun () -> ignore (Partition.run_k large ~k:10)));
      (* Nothing is memoized across builds, so every run is cold. *)
      Test.make ~name:"fig10/reduced-tree-build-cold"
        (Staged.stage (fun () -> ignore (Reduced_tree.build large large_part)));
      Test.make ~name:"fig11/opt-edgecut-10"
        (Staged.stage (fun () -> ignore (Opt_edgecut.solve opt_tree)));
      Test.make ~name:"core/intset-union-many"
        (Staged.stage (fun () -> ignore (Docset.union_many sets)));
    ]
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  (* One OLS estimate (ms per run) of one test. *)
  let estimate test =
    let results = Benchmark.all cfg instances test in
    let analysis = Analyze.all ols (List.hd instances) results in
    (* One OLS result per sub-test; these tests have exactly one. *)
    Hashtbl.fold
      (fun _ v acc -> match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> acc)
      analysis 0.
    /. 1e6
  in
  (* A single estimate swings up to 2x between runs on a shared box, so
     every test runs [repeats] times, in interleaved rounds, and the table
     reports the median and interquartile range of the estimates. *)
  let repeats = 5 in
  let rounds = Array.init repeats (fun _ -> Array.of_list (List.map estimate tests)) in
  let rows =
    List.mapi
      (fun i test ->
        let ms = Array.map (fun round -> round.(i)) rounds in
        [
          Test.name test;
          Printf.sprintf "%.3f ms" (Stats.median ms);
          Printf.sprintf "%.3f ms" (Stats.percentile ms 75. -. Stats.percentile ms 25.);
          string_of_int repeats;
        ])
      tests
  in
  print_string
    (Table.render
       ~header:[ "operation"; "median/run"; "IQR"; "n" ]
       [ Table.Left; Right; Right; Right ]
       rows);
  say ""

(* ------------------------------------------------------------------ *)
(* Prefetch: the plan cache under repeated Zipf traffic               *)
(* ------------------------------------------------------------------ *)

(* Repeat traffic drawn Zipf-style over the workload queries (rank 0 most
   popular), each session an oracle navigation to the query's target —
   exactly the regime the prefetch subsystem is built for: repeat sessions
   of a query replay identical expand sequences, so memoized plans serve
   them at O(1). Run once with the plan cache off and once with it on,
   compare expand latency percentiles and report the hit rate. *)
let prefetch_bench () =
  say "%s" (Table.section "Prefetch: plan cache off vs on (repeated Zipf workload)");
  say "";
  let w = Q.build ~config:Q.small_config ~seed:workload_seed () in
  let queries = Array.of_list w.Q.queries in
  let n_sessions = 60 in
  let run_traffic ~prefetch =
    Metrics.reset ();
    let config =
      { Engine.default_config with
        Engine.prefetch =
          (if prefetch then Some Bionav_prefetch.Prefetch.default_config else None) }
    in
    let engine = Engine.create ~config ~database:w.Q.database ~eutils:w.Q.eutils () in
    let zipf = Zipf.create ~exponent:1.0 (Array.length queries) in
    let rng = Rng.create 42 in
    for _ = 1 to n_sessions do
      let q = queries.(Zipf.draw zipf rng) in
      match Engine.search engine q.Q.keyword with
      | Ok (Engine.Session s) ->
          Engine.run_locked s (fun () ->
              ignore (Simulate.to_target (Engine.navigation s) ~target:q.Q.target_node));
          ignore (Engine.close engine (Engine.session_id s) : bool)
      | Ok Engine.No_results | Error _ -> ()
    done;
    let hist = Metrics.histogram "bionav_expand_latency_ms" in
    ( Metrics.percentile hist 50.,
      Metrics.percentile hist 95.,
      Metrics.count hist,
      Engine.plan_cache_hit_rate engine )
  in
  let off_p50, off_p95, off_expands, _ = run_traffic ~prefetch:false in
  let on_p50, on_p95, on_expands, hit_rate = run_traffic ~prefetch:true in
  print_string
    (Table.render
       ~header:[ "plan cache"; "EXPANDs"; "p50/EXPAND"; "p95/EXPAND"; "plan hit rate" ]
       [ Table.Left; Right; Right; Right; Right ]
       [
         [ "off"; string_of_int off_expands; Printf.sprintf "%.3f ms" off_p50;
           Printf.sprintf "%.3f ms" off_p95; "-" ];
         [ "on"; string_of_int on_expands; Printf.sprintf "%.3f ms" on_p50;
           Printf.sprintf "%.3f ms" on_p95; Printf.sprintf "%.0f%%" (100. *. hit_rate) ];
       ]);
  say "";
  say "  %d sessions over %d queries (Zipf, exponent 1.0)." n_sessions (Array.length queries);
  write_bench_json "BENCH_prefetch.json"
    [
      ("sessions", string_of_int n_sessions);
      ("queries", string_of_int (Array.length queries));
      ( "off",
        Printf.sprintf "{ \"expands\": %d, \"expand_p50_ms\": %.4f, \"expand_p95_ms\": %.4f }"
          off_expands off_p50 off_p95 );
      ( "on",
        Printf.sprintf
          "{ \"expands\": %d, \"expand_p50_ms\": %.4f, \"expand_p95_ms\": %.4f, \
           \"plan_cache_hit_rate\": %.4f }"
          on_expands on_p50 on_p95 hit_rate );
    ];
  say "";
  if hit_rate < 0.5 then begin
    say "  *** FAIL: plan-cache hit rate %.0f%% below the 50%% floor ***"
      (100. *. hit_rate);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Docset: result sets as plain values                                   *)
(* ------------------------------------------------------------------ *)

(* Minimal scanner for the flat ["key": number] baseline files this bench
   writes: no JSON dependency, no nesting needed. *)
let scan_json_number text key =
  let needle = Printf.sprintf "\"%s\"" key in
  let rec find i =
    if i + String.length needle > String.length text then None
    else if String.sub text i (String.length needle) = needle then Some (i + String.length needle)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let i = ref i in
      while
        !i < String.length text
        && (match text.[!i] with ':' | ' ' | '\t' | '\n' -> true | _ -> false)
      do
        incr i
      done;
      let start = !i in
      while
        !i < String.length text
        && (match text.[!i] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
      do
        incr i
      done;
      if !i = start then None else float_of_string_opt (String.sub text start (!i - start))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The Zipf serving workload with prefetch off — every EXPAND derives
   its components and pays the full Heuristic-ReducedOpt cut over docset
   values — plus Intset-vs-Docset micro comparisons on attachment-shaped
   sets, and the docset bytes the engine keeps resident. Gated against
   bench/docset_baseline.json when present. *)
let docset_bench () =
  say "%s" (Table.section "Docset: result sets as plain values");
  say "";
  let w = Q.build ~config:Q.small_config ~seed:workload_seed () in
  let queries = Array.of_list w.Q.queries in
  let n_sessions = 60 in
  Metrics.reset ();
  let engine = Engine.create ~database:w.Q.database ~eutils:w.Q.eutils () in
  let zipf = Zipf.create ~exponent:1.0 (Array.length queries) in
  let rng = Rng.create 42 in
  for _ = 1 to n_sessions do
    let q = queries.(Zipf.draw zipf rng) in
    match Engine.search engine q.Q.keyword with
    | Ok (Engine.Session s) ->
        ignore (Simulate.to_target (Engine.navigation s) ~target:q.Q.target_node);
        ignore (Engine.close engine (Engine.session_id s) : bool)
    | Ok Engine.No_results | Error _ -> ()
  done;
  let hist = Metrics.histogram "bionav_expand_latency_ms" in
  let expand_p50 = Metrics.percentile hist 50. in
  let expand_p95 = Metrics.percentile hist 95. in
  let expands = Metrics.count hist in
  let resident_bytes = (Engine.docset_stats engine).Docset_arena.bytes in
  (* Set-op micro: the same attachment-shaped sets through both layers. *)
  let reps = 200 in
  let lists = List.init 32 (fun i -> List.init 100 (fun j -> (i * 37) + j)) in
  let isets = List.map Intset.of_list lists in
  let dsets = List.map Docset.of_list lists in
  let intset_union_ms = Timing.repeat_ms reps (fun () -> ignore (Intset.union_many isets)) in
  let docset_union_ms = Timing.repeat_ms reps (fun () -> ignore (Docset.union_many dsets)) in
  let ipairs = Array.of_list isets and dpairs = Array.of_list dsets in
  let n = Array.length ipairs in
  let intset_inter_ms =
    Timing.repeat_ms reps (fun () ->
        for i = 0 to n - 2 do
          ignore (Intset.inter_cardinal ipairs.(i) ipairs.(i + 1) : int)
        done)
  in
  let docset_inter_ms =
    Timing.repeat_ms reps (fun () ->
        for i = 0 to n - 2 do
          ignore (Docset.inter_cardinal dpairs.(i) dpairs.(i + 1) : int)
        done)
  in
  let speedup a b = if b > 0. then a /. b else 0. in
  print_string
    (Table.render
       ~header:[ "metric"; "value" ]
       [ Table.Left; Right ]
       [
         [ "EXPANDs (prefetch off)"; string_of_int expands ];
         [ "expand p50"; Printf.sprintf "%.3f ms" expand_p50 ];
         [ "expand p95"; Printf.sprintf "%.3f ms" expand_p95 ];
         [ "resident bytes"; string_of_int resident_bytes ];
         [ "union_many intset"; Printf.sprintf "%.4f ms" intset_union_ms ];
         [ "union_many docset"; Printf.sprintf "%.4f ms" docset_union_ms ];
         [ "union_many speedup"; Printf.sprintf "%.1fx" (speedup intset_union_ms docset_union_ms) ];
         [ "inter_cardinal intset"; Printf.sprintf "%.4f ms" intset_inter_ms ];
         [ "inter_cardinal docset"; Printf.sprintf "%.4f ms" docset_inter_ms ];
         [ "inter_cardinal speedup";
           Printf.sprintf "%.1fx" (speedup intset_inter_ms docset_inter_ms) ];
       ]);
  say "";
  write_bench_json "BENCH_docset.json"
    [
      ("sessions", string_of_int n_sessions);
      ("expands", string_of_int expands);
      ("expand_p50_ms", Printf.sprintf "%.4f" expand_p50);
      ("expand_p95_ms", Printf.sprintf "%.4f" expand_p95);
      ("resident_bytes", string_of_int resident_bytes);
      ("union_many_intset_ms", Printf.sprintf "%.5f" intset_union_ms);
      ("union_many_docset_ms", Printf.sprintf "%.5f" docset_union_ms);
      ("inter_cardinal_intset_ms", Printf.sprintf "%.5f" intset_inter_ms);
      ("inter_cardinal_docset_ms", Printf.sprintf "%.5f" docset_inter_ms);
    ];
  say "";
  (* Regression gates against the committed baseline, on outcomes: expand
     latency (p50 and p95) gets a wide multiplier (CI machines vary); the
     resident bytes are tight. *)
  let baseline_path = "bench/docset_baseline.json" in
  if Sys.file_exists baseline_path then begin
    let baseline = read_file baseline_path in
    let fail = ref false in
    let gate name ok detail =
      if not ok then begin
        say "  *** FAIL: %s (%s) ***" name detail;
        fail := true
      end
    in
    (match scan_json_number baseline "expand_p50_ms" with
    | Some b when b > 0. ->
        gate "expand p50 regressed"
          (expand_p50 <= 2.5 *. b)
          (Printf.sprintf "%.3f ms vs baseline %.3f ms (2.5x budget)" expand_p50 b)
    | Some _ | None -> ());
    (match scan_json_number baseline "expand_p95_ms" with
    | Some b when b > 0. ->
        gate "expand p95 regressed"
          (expand_p95 <= 2.5 *. b)
          (Printf.sprintf "%.3f ms vs baseline %.3f ms (2.5x budget)" expand_p95 b)
    | Some _ | None -> ());
    (match scan_json_number baseline "resident_bytes" with
    | Some b when b > 0. ->
        gate "resident bytes grew"
          (float_of_int resident_bytes <= 1.25 *. b)
          (Printf.sprintf "%d vs baseline %.0f (1.25x budget)" resident_bytes b)
    | Some _ | None -> ());
    if !fail then exit 1;
    say "  baseline gates passed (%s)" baseline_path
  end
  else say "  no %s — gates skipped" baseline_path

(* ------------------------------------------------------------------ *)
(* Segment store: streaming bulk ingest + cold-cache serving           *)
(* ------------------------------------------------------------------ *)

module Seg_store = Bionav_segstore.Store
module Seg_ingest = Bionav_segstore.Ingest
module Seg_bridge = Bionav_segstore.Bridge
module DB = Bionav_store.Database
module Syn = Bionav_mesh.Synthetic
module Gen = Bionav_corpus.Generator

(* Both segstore targets contribute fragments to one artifact, so
   `bench/main.exe ingest coldexpand` produces a single
   BENCH_ingest.json covering ingest and serving. *)
let segstore_json : (string * string) list ref = ref []

let write_segstore_json () = write_bench_json "BENCH_ingest.json" (List.rev !segstore_json)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let bench_seg_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("bionav_bench_" ^ name)
  in
  rm_rf dir;
  dir

(* The out-of-core promise, measured: stream a synthetic corpus that
   never exists in memory through the run-spill/merge pipeline and gate
   the process peak-RSS growth against the configured memory budget
   (run buffer during ingest + the block-cache budget the sealed
   segments will be served under, which is sized at a tenth of the
   segment bytes so the corpus is always >= 10x the cache). The fixed
   allowance absorbs runtime/minor-heap noise; a pipeline that
   materialized the corpus would blow past it by an order of
   magnitude. *)
let ingest_bench () =
  say "%s" (Table.section "Segment store: streaming bulk ingest (bounded peak RSS)");
  say "";
  let smoke = !smoke_mode in
  let n_citations = if smoke then 40_000 else 300_000 in
  let run_budget_pairs = if smoke then 1 lsl 17 else 1 lsl 20 in
  let config = { Seg_ingest.run_budget_pairs; segment_max_bytes = 8 * 1024 * 1024 } in
  let hierarchy = Syn.generate ~params:Syn.small_params ~seed:71 () in
  let dir = bench_seg_dir "ingest" in
  let peak0 = Procinfo.peak_rss_bytes () in
  let t0 = Timing.now_ms () in
  let summary =
    Seg_ingest.ingest_generated ~config ~dir
      ~params:{ Gen.small_params with Gen.n_citations }
      ~seed:72 hierarchy
  in
  let elapsed_ms = Timing.now_ms () -. t0 in
  let peak1 = Procinfo.peak_rss_bytes () in
  let peak_delta = peak1 - peak0 in
  let run_buffer_bytes = run_budget_pairs * 8 in
  let cache_budget_bytes = max 1 (summary.Seg_ingest.bytes / 10) in
  let allowance = 48 * 1024 * 1024 in
  let rss_ceiling = (2 * (run_buffer_bytes + cache_budget_bytes)) + allowance in
  let per_s x = if elapsed_ms > 0. then 1000. *. float_of_int x /. elapsed_ms else 0. in
  let mib x = float_of_int x /. (1024. *. 1024.) in
  print_string
    (Table.render
       ~header:[ "metric"; "value" ]
       [ Table.Left; Right ]
       [
         [ "citations"; string_of_int summary.Seg_ingest.n_citations ];
         [ "associations"; string_of_int summary.Seg_ingest.n_associations ];
         [ "runs spilled"; string_of_int summary.Seg_ingest.runs_spilled ];
         [ "segments sealed"; string_of_int summary.Seg_ingest.n_segments ];
         [ "segment bytes"; Printf.sprintf "%.1f MiB" (mib summary.Seg_ingest.bytes) ];
         [ "elapsed"; Printf.sprintf "%.0f ms" elapsed_ms ];
         [ "citations/s"; Printf.sprintf "%.0f" (per_s summary.Seg_ingest.n_citations) ];
         [ "associations/s"; Printf.sprintf "%.0f" (per_s summary.Seg_ingest.n_associations) ];
         [ "run buffer"; Printf.sprintf "%.1f MiB" (mib run_buffer_bytes) ];
         [ "cache budget (bytes/10)"; Printf.sprintf "%.1f MiB" (mib cache_budget_bytes) ];
         [ "corpus / cache ratio";
           Printf.sprintf "%.1fx"
             (float_of_int summary.Seg_ingest.bytes /. float_of_int cache_budget_bytes) ];
         [ "peak RSS before"; Printf.sprintf "%.1f MiB" (mib peak0) ];
         [ "peak RSS after"; Printf.sprintf "%.1f MiB" (mib peak1) ];
         [ "peak RSS growth"; Printf.sprintf "%.1f MiB" (mib peak_delta) ];
         [ "RSS ceiling (2x budget + slack)"; Printf.sprintf "%.1f MiB" (mib rss_ceiling) ];
       ]);
  say "";
  let rss_ok = peak_delta <= rss_ceiling in
  let ratio_ok = summary.Seg_ingest.bytes >= 10 * cache_budget_bytes in
  segstore_json :=
    ( "ingest",
      json_obj ~indent:"  "
        [
          ("citations", string_of_int summary.Seg_ingest.n_citations);
          ("associations", string_of_int summary.Seg_ingest.n_associations);
          ("runs_spilled", string_of_int summary.Seg_ingest.runs_spilled);
          ("segments", string_of_int summary.Seg_ingest.n_segments);
          ("segment_bytes", string_of_int summary.Seg_ingest.bytes);
          ("elapsed_ms", Printf.sprintf "%.2f" elapsed_ms);
          ("citations_per_s", Printf.sprintf "%.1f" (per_s summary.Seg_ingest.n_citations));
          ("run_buffer_bytes", string_of_int run_buffer_bytes);
          ("cache_budget_bytes", string_of_int cache_budget_bytes);
          ("peak_rss_before_bytes", string_of_int peak0);
          ("peak_rss_after_bytes", string_of_int peak1);
          ("peak_rss_growth_bytes", string_of_int peak_delta);
          ("rss_ceiling_bytes", string_of_int rss_ceiling);
          ("corpus_at_least_10x_cache", string_of_bool ratio_ok);
          ("rss_gate_ok", string_of_bool rss_ok);
        ] )
    :: !segstore_json;
  write_segstore_json ();
  say "";
  if not ratio_ok then begin
    say "  *** FAIL: corpus %d bytes below 10x the cache budget %d ***"
      summary.Seg_ingest.bytes cache_budget_bytes;
    exit 1
  end;
  if not rss_ok then begin
    say "  *** FAIL: ingest peak RSS grew %.1f MiB, ceiling %.1f MiB ***" (mib peak_delta)
      (mib rss_ceiling);
    exit 1
  end

(* Serve expand traffic against freshly sealed segments with a stone-cold
   block cache and hold the backend to byte-identity with the in-memory
   association table: same navigation trees (per-node concepts and result
   sets compared with Docset.equal), same oracle traces. Cold p95 comes
   from the expand-latency histogram of the segstore run.

   The first query is hot: it runs again after each other query, and a
   one-tree navigation cache makes every run rebuild its tree from the
   store. The block cache holds fewer blocks than the run touches, so
   its hit and miss counts depend on which blocks eviction keeps (LRU
   keeps the hot query's; FIFO would not), and they are pinned: a change
   to the eviction policy moves them. *)
let coldexpand_cache_blocks = 288

let coldexpand_expected_hits, coldexpand_expected_misses = (240, 350)

let coldexpand_bench () =
  say "%s" (Table.section "Segment store: cold-cache expand traffic vs in-memory");
  say "";
  let w = Q.build ~config:Q.small_config ~seed:workload_seed () in
  let dir = bench_seg_dir "coldexpand" in
  let ingest_summary = Seg_ingest.ingest_medline ~dir w.Q.medline in
  say "  ingested %d citations into %d segment(s), %d bytes"
    ingest_summary.Seg_ingest.n_citations ingest_summary.Seg_ingest.n_segments
    ingest_summary.Seg_ingest.bytes;
  say "";
  (* Structural byte-identity, checked off the serving path: the same
     result sets must attach the same concepts with the same citation
     sets on both backends. *)
  let store = Seg_store.open_dir dir in
  let ext_db = Seg_bridge.database store (DB.hierarchy w.Q.database) in
  let results_identical = ref true in
  List.iter
    (fun q ->
      let nav_mem = Nav_tree.of_database w.Q.database q.Q.result in
      let nav_ext = Nav_tree.of_database ext_db q.Q.result in
      if Nav_tree.size nav_mem <> Nav_tree.size nav_ext then results_identical := false
      else
        for node = 0 to Nav_tree.size nav_mem - 1 do
          if
            Nav_tree.concept_id nav_mem node <> Nav_tree.concept_id nav_ext node
            || not
                 (Docset.equal (Nav_tree.results nav_mem node)
                    (Nav_tree.results nav_ext node))
          then results_identical := false
        done)
    w.Q.queries;
  (* Engine-level runs: one backend at a time, each from a fresh engine,
     tracing every oracle navigation. The segstore engine opens its own
     store, so its block cache starts empty — every first-touch decode
     in the trace is a cold read. *)
  let run_backend config =
    Metrics.reset ();
    let config = { config with Engine.cache_capacity = 1 } in
    let engine = Engine.create ~config ~database:w.Q.database ~eutils:w.Q.eutils () in
    let buf = Buffer.create 4096 in
    List.iter
      (fun q ->
        match Engine.search engine q.Q.keyword with
        | Ok (Engine.Session s) ->
            let outcome = Simulate.to_target (Engine.navigation s) ~target:q.Q.target_node in
            Buffer.add_string buf
              (Printf.sprintf "%s cost=%d expands=%d revealed=%d [%s]\n" q.Q.spec.Q.name
                 outcome.Simulate.navigation_cost outcome.Simulate.expands
                 outcome.Simulate.revealed
                 (String.concat ";"
                    (List.map
                       (fun (r : Navigation.expand_record) ->
                         Printf.sprintf "%d:%d" r.Navigation.node r.Navigation.n_revealed)
                       outcome.Simulate.history)));
            ignore (Engine.close engine (Engine.session_id s) : bool)
        | Ok Engine.No_results | Error _ ->
            Buffer.add_string buf (Printf.sprintf "%s no-results\n" q.Q.spec.Q.name))
      (match w.Q.queries with
      | hot :: cold -> hot :: List.concat_map (fun q -> [ q; hot ]) cold
      | [] -> []);
    let hist = Metrics.histogram "bionav_expand_latency_ms" in
    let hits = Metrics.value (Metrics.counter "bionav_segstore_block_cache_hits_total") in
    let misses =
      Metrics.value (Metrics.counter "bionav_segstore_block_cache_misses_total")
    in
    ( Buffer.contents buf,
      Metrics.count hist,
      Metrics.percentile hist 50.,
      Metrics.percentile hist 95.,
      hits,
      misses )
  in
  let mem_trace, mem_expands, mem_p50, mem_p95, _, _ =
    run_backend Engine.default_config
  in
  let cold_trace, cold_expands, cold_p50, cold_p95, hits, misses =
    let block_bytes = Bionav_segstore.Block_codec.block_size * (Sys.word_size / 8) in
    let config =
      { Seg_store.default_config with
        Seg_store.cache_budget_bytes = coldexpand_cache_blocks * block_bytes }
    in
    run_backend { Engine.default_config with Engine.segstore = Some (Seg_store.spec ~config dir) }
  in
  let trace_identical = String.equal mem_trace cold_trace in
  print_string
    (Table.render
       ~header:[ "backend"; "EXPANDs"; "p50/EXPAND"; "p95/EXPAND" ]
       [ Table.Left; Right; Right; Right ]
       [
         [ "in-memory"; string_of_int mem_expands; Printf.sprintf "%.3f ms" mem_p50;
           Printf.sprintf "%.3f ms" mem_p95 ];
         [ "segstore (cold)"; string_of_int cold_expands; Printf.sprintf "%.3f ms" cold_p50;
           Printf.sprintf "%.3f ms" cold_p95 ];
       ]);
  say "";
  say "  block cache: %d hit(s), %d miss(es); traces %s; result sets %s" hits misses
    (if trace_identical then "byte-identical" else "DIVERGED")
    (if !results_identical then "byte-identical" else "DIVERGED");
  say "";
  let p95_ceiling_ms = 100. in
  let p95_ok = cold_p95 <= p95_ceiling_ms in
  let counts_ok = hits = coldexpand_expected_hits && misses = coldexpand_expected_misses in
  segstore_json :=
    ( "coldexpand",
      json_obj ~indent:"  "
        [
          ("queries", string_of_int (List.length w.Q.queries));
          ("segments", string_of_int ingest_summary.Seg_ingest.n_segments);
          ("segment_bytes", string_of_int ingest_summary.Seg_ingest.bytes);
          ("mem_expands", string_of_int mem_expands);
          ("mem_expand_p50_ms", Printf.sprintf "%.4f" mem_p50);
          ("mem_expand_p95_ms", Printf.sprintf "%.4f" mem_p95);
          ("cold_expands", string_of_int cold_expands);
          ("cold_expand_p50_ms", Printf.sprintf "%.4f" cold_p50);
          ("cold_expand_p95_ms", Printf.sprintf "%.4f" cold_p95);
          ("cold_p95_ceiling_ms", Printf.sprintf "%.1f" p95_ceiling_ms);
          ("block_cache_blocks", string_of_int coldexpand_cache_blocks);
          ("block_cache_hits", string_of_int hits);
          ("block_cache_misses", string_of_int misses);
          ( "block_cache_expected",
            Printf.sprintf "[%d, %d]" coldexpand_expected_hits coldexpand_expected_misses );
          ("traces_identical", string_of_bool trace_identical);
          ("results_identical", string_of_bool !results_identical);
        ] )
    :: !segstore_json;
  write_segstore_json ();
  say "";
  if not (trace_identical && !results_identical) then begin
    say "  *** FAIL: segstore backend diverged from the in-memory backend ***";
    exit 1
  end;
  if not p95_ok then begin
    say "  *** FAIL: cold expand p95 %.3f ms above the %.0f ms ceiling ***" cold_p95
      p95_ceiling_ms;
    exit 1
  end;
  if not counts_ok then begin
    say "  *** FAIL: block cache %d hit(s), %d miss(es) at %d blocks, pinned %d/%d ***" hits
      misses coldexpand_cache_blocks coldexpand_expected_hits coldexpand_expected_misses;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serve: the readiness-loop serving tier under open-loop load         *)
(* ------------------------------------------------------------------ *)

module Http = Bionav_web.Http
module App = Bionav_web.App

(* A minimal keep-alive HTTP client: one descriptor plus a pending
   buffer for bytes read past the current response. Strictly
   request-response per connection, so the pending buffer is normally
   empty between calls. *)
type serve_client = { cfd : Unix.file_descr; pending : Buffer.t }

let client_write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let client_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { cfd = fd; pending = Buffer.create 512 }

let client_close c = try Unix.close c.cfd with Unix.Unix_error _ -> ()

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* Read exactly one response off a keep-alive connection: headers to
   the blank line, then Content-Length body bytes; anything beyond
   stays pending. Returns the status code. *)
let client_read_response c =
  let chunk = Bytes.create 8192 in
  let fill () =
    let n = Unix.read c.cfd chunk 0 8192 in
    if n = 0 then failwith "server closed mid-response";
    Buffer.add_subbytes c.pending chunk 0 n
  in
  let rec header_end () =
    match find_substring (Buffer.contents c.pending) "\r\n\r\n" with
    | Some i -> i
    | None ->
        fill ();
        header_end ()
  in
  let hdr_end = header_end () in
  let head = String.sub (Buffer.contents c.pending) 0 hdr_end in
  let status = Scanf.sscanf head "HTTP/1.1 %d" Fun.id in
  let clen =
    match find_substring (String.lowercase_ascii head) "content-length:" with
    | None -> 0
    | Some i ->
        let rest = String.sub head (i + 15) (String.length head - i - 15) in
        Scanf.sscanf (String.trim rest) "%d" Fun.id
  in
  let total = hdr_end + 4 + clen in
  while Buffer.length c.pending < total do
    fill ()
  done;
  let all = Buffer.contents c.pending in
  let leftover = String.sub all total (String.length all - total) in
  Buffer.clear c.pending;
  Buffer.add_string c.pending leftover;
  status

let client_get c target =
  client_write_all c.cfd ("GET " ^ target ^ " HTTP/1.1\r\nHost: bench\r\n\r\n");
  client_read_response c

(* Phase A's client half runs in a forked process: with RLIMIT_NOFILE
   at 20k, parent and child each get their own descriptor budget, so
   10k connections cost the server process 10k fds, not 20k. The fork
   happens before the server domain is spawned (forking a multi-domain
   OCaml process is not safe). *)
let idle_child ~ctrl_r ~report_w =
  let ic = Unix.in_channel_of_descr ctrl_r in
  (try
     let line = input_line ic in
     Scanf.sscanf line "port %d target %d" (fun port target ->
         let conns =
           Array.init target (fun _ ->
               let c = client_connect port in
               (* One request per connection: each socket proves the
                  full accept/parse/respond/idle cycle, and the
                  request-response round trip paces the connect burst
                  so the listen backlog never overflows. *)
               let status = client_get c "/healthz" in
               if status <> 200 then failwith (Printf.sprintf "healthz -> %d" status);
               c)
         in
         client_write_all report_w "opened\n";
         (match input_line ic with _ -> ());
         Array.iter client_close conns)
   with e ->
     (try client_write_all report_w ("error " ^ Printexc.to_string e ^ "\n")
      with _ -> ());
     Unix._exit 1);
  Unix._exit 0

let spawn_serve_domain ~config ~max_requests handler =
  let port_box = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        Http.serve ~config ~on_ready:(fun ~port -> Atomic.set port_box port) ~max_requests
          ~port:0 handler)
  in
  while Atomic.get port_box = 0 do
    Unix.sleepf 0.002
  done;
  (d, Atomic.get port_box)

let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 |> max 0))

let serve_bench () =
  say "%s" (Table.section "Serve: keep-alive readiness loop under open-loop load");
  let w = Lazy.force workload in
  let smoke = !smoke_mode in
  let cores = Domain.recommended_domain_count () in
  let gates_enforced = cores >= 2 in
  let app = App.create ~database:w.Q.database ~eutils:w.Q.eutils () in
  let handler = App.handle app in
  let engine = App.engine app in
  (* Pre-create one session per workload query; the open-loop phase
     draws Zipf-distributed /session hits over them, the way a heavy
     head of popular result sets dominates real traffic. *)
  let sids =
    List.filter_map
      (fun q ->
        match Engine.search engine q.Q.spec.Q.name with
        | Ok (Engine.Session s) -> Some (Engine.session_id s)
        | Ok Engine.No_results | Error _ -> None)
      w.Q.queries
    |> Array.of_list
  in
  if Array.length sids = 0 then begin
    say "  *** FAIL: no sessions could be created ***";
    exit 1
  end;
  let nofile = Bionav_web.Poll.raise_nofile_limit () in
  (* --- phase A: concurrent idle keep-alive connections ---------------- *)
  let idle_target = if smoke then 200 else 10_000 in
  let probe_count = 5 in
  say "  phase A: %d idle keep-alive connections on one domain (nofile %d)" idle_target
    nofile;
  flush stdout;
  flush stderr;
  let ctrl_r, ctrl_w = Unix.pipe () in
  let report_r, report_w = Unix.pipe () in
  let child =
    match Unix.fork () with
    | 0 ->
        Unix.close ctrl_w;
        Unix.close report_r;
        idle_child ~ctrl_r ~report_w
    | pid ->
        Unix.close ctrl_r;
        Unix.close report_w;
        pid
  in
  let idle_config =
    { Http.default_server_config with
      Http.max_connections = idle_target + 64;
      backlog = 1024;
      idle_timeout_ms = 120_000.;
    }
  in
  let server, port =
    spawn_serve_domain ~config:idle_config ~max_requests:(idle_target + probe_count) handler
  in
  client_write_all ctrl_w (Printf.sprintf "port %d target %d\n" port idle_target);
  let report_ic = Unix.in_channel_of_descr report_r in
  let child_report = input_line report_ic in
  if child_report <> "opened" then begin
    say "  *** FAIL: idle-connection client: %s ***" child_report;
    exit 1
  end;
  (* Let the listener's periodic sweep refresh the idle gauge. *)
  Unix.sleepf 0.3;
  let open_conns = Metrics.gauge_value (Metrics.gauge "bionav_serve_open_connections") in
  let idle_conns = Metrics.gauge_value (Metrics.gauge "bionav_serve_idle_connections") in
  (* Probe latency while all those idle sockets sit in the poll set:
     the cost of an idle connection is what this measures. *)
  let probe = client_connect port in
  let probe_lat = Array.make probe_count 0. in
  let probe_ok = ref true in
  for i = 0 to probe_count - 1 do
    let t0 = Unix.gettimeofday () in
    let status = client_get probe "/healthz" in
    probe_lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.;
    if status <> 200 then probe_ok := false
  done;
  client_close probe;
  client_write_all ctrl_w "quit\n";
  ignore (Unix.waitpid [] child);
  Domain.join server;
  (try Unix.close ctrl_w with Unix.Unix_error _ -> ());
  (try Unix.close report_r with Unix.Unix_error _ -> ());
  Array.sort compare probe_lat;
  let probe_worst = probe_lat.(probe_count - 1) in
  say "  open %d  idle %d  probe worst %.3f ms" (int_of_float open_conns)
    (int_of_float idle_conns) probe_worst;
  (* --- phase B: open-loop latency (coordinated-omission-safe) --------- *)
  let rate = if smoke then 100. else 500. in
  let duration_s = if smoke then 1.0 else 5.0 in
  let n_reqs = int_of_float (rate *. duration_s) in
  let n_client_threads = 8 in
  say "  phase B: open loop at %.0f req/s for %.1f s (%d requests, Zipf over %d sessions)"
    rate duration_s n_reqs (Array.length sids);
  let zipf = Zipf.create ~exponent:1.0 (Array.length sids) in
  let rng = Rng.create 77 in
  let draws = Array.init n_reqs (fun _ -> Zipf.draw zipf rng) in
  let open_config = { Http.default_server_config with Http.max_connections = 256 } in
  let server, port = spawn_serve_domain ~config:open_config ~max_requests:n_reqs handler in
  let latencies = Array.make n_reqs 0. in
  let errors = Atomic.make 0 in
  let interval_s = 1. /. rate in
  let start = Unix.gettimeofday () +. 0.05 in
  let client k =
    let c = client_connect port in
    let i = ref k in
    while !i < n_reqs do
      let intended = start +. (float_of_int !i *. interval_s) in
      let now = Unix.gettimeofday () in
      if intended > now then Thread.delay (intended -. now);
      let status = client_get c ("/session?sid=" ^ sids.(draws.(!i))) in
      (* Coordinated-omission-safe: latency from the *intended* send
         time, so a stalled server inflates the tail instead of
         silently thinning the schedule. *)
      latencies.(!i) <- (Unix.gettimeofday () -. intended) *. 1000.;
      if status <> 200 then Atomic.incr errors;
      i := !i + n_client_threads
    done;
    client_close c
  in
  let threads = List.init n_client_threads (fun k -> Thread.create client k) in
  List.iter Thread.join threads;
  Domain.join server;
  let wall_s = Unix.gettimeofday () -. start in
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let p50 = percentile_of_sorted sorted 50. in
  let p99 = percentile_of_sorted sorted 99. in
  let error_count = Atomic.get errors in
  let error_rate = float_of_int error_count /. float_of_int n_reqs in
  let open_throughput = float_of_int n_reqs /. wall_s in
  say "  p50 %.3f ms  p99 %.3f ms  errors %d/%d  %.0f req/s" p50 p99 error_count n_reqs
    open_throughput;
  (* --- JSON + gates ---------------------------------------------------- *)
  let p99_ceiling_ms = 250. in
  let error_budget = 0.01 in
  let conn_gate_ok = int_of_float open_conns >= idle_target in
  let idle_gate_ok = int_of_float idle_conns >= idle_target in
  write_bench_json "BENCH_serve.json"
    [
      ("bench", json_string "serve");
      ("gates_enforced", string_of_bool gates_enforced);
      ("nofile_limit", string_of_int nofile);
      ( "idle",
        json_obj ~indent:"  "
          [
            ("target", string_of_int idle_target);
            ("open_connections", string_of_int (int_of_float open_conns));
            ("idle_connections", string_of_int (int_of_float idle_conns));
            ("probe_ok", string_of_bool !probe_ok);
            ("probe_worst_ms", Printf.sprintf "%.3f" probe_worst);
          ] );
      ( "open_loop",
        json_obj ~indent:"  "
          [
            ("rate_rps", Printf.sprintf "%.0f" rate);
            ("duration_s", Printf.sprintf "%.1f" duration_s);
            ("requests", string_of_int n_reqs);
            ("client_connections", string_of_int n_client_threads);
            ("errors", string_of_int error_count);
            ("error_rate", Printf.sprintf "%.4f" error_rate);
            ("p50_ms", Printf.sprintf "%.3f" p50);
            ("p99_ms", Printf.sprintf "%.3f" p99);
            ("p99_ceiling_ms", Printf.sprintf "%.0f" p99_ceiling_ms);
            ("throughput_rps", Printf.sprintf "%.1f" open_throughput);
          ] );
    ];
  say "";
  let fail = ref false in
  let gate name ok detail =
    if not ok then begin
      say "  *** FAIL: %s (%s) ***" name detail;
      fail := true
    end
  in
  (* Correctness gates — always enforced, on every run. *)
  gate "idle connection target missed" conn_gate_ok
    (Printf.sprintf "%d open vs %d target" (int_of_float open_conns) idle_target);
  gate "idle gauge below target" idle_gate_ok
    (Printf.sprintf "%d idle vs %d target" (int_of_float idle_conns) idle_target);
  gate "probe failed amid idle connections" !probe_ok "non-200 probe response";
  gate "error budget blown"
    (error_rate <= error_budget)
    (Printf.sprintf "%.4f vs %.4f budget" error_rate error_budget);
  (* The latency gate needs a second core: the client threads and the
     server domain share the box with nothing to spare on one. *)
  if gates_enforced then
    gate "open-loop p99 above ceiling" (p99 <= p99_ceiling_ms)
      (Printf.sprintf "%.3f ms vs %.0f ms" p99 p99_ceiling_ms);
  if !fail then exit 1
  else
    say "  all serve gates green%s"
      (if gates_enforced then "" else " (latency gate recorded only)")

(* ------------------------------------------------------------------ *)
(* CSV export of the headline artifacts                                 *)
(* ------------------------------------------------------------------ *)

let csv () =
  let w = Lazy.force workload in
  let rs = Lazy.force runs in
  let dir = "results" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name content =
    let path = Filename.concat dir name in
    write_file path content;
    say "wrote %s" path
  in
  write "table1.csv" (R.table1_csv w);
  write "fig8.csv" (R.fig8_csv rs);
  write "fig9.csv" (R.fig9_csv rs);
  write "fig10.csv" (R.fig10_csv rs);
  let prothymosin = List.find (fun r -> r.E.query.Q.spec.Q.name = "prothymosin") rs in
  write "fig11.csv" (R.fig11_csv prothymosin);
  (* The CSVs keep their plain format; their provenance goes beside them.
     A sample is one timed EXPAND: fig10 averages every query's, fig11
     lists prothymosin's one per row. *)
  let expands r = List.length r.E.bionav.Simulate.history in
  write_bench_json (Filename.concat dir "csv_stamp.json")
    [
      ( "samples",
        json_obj ~indent:"  "
          [
            ("fig10.csv", string_of_int (List.fold_left (fun n r -> n + expands r) 0 rs));
            ("fig11.csv", string_of_int (expands prothymosin));
          ] );
    ]


(* ------------------------------------------------------------------ *)
(* Adaptive: learned probabilities — overhead gates + cost reduction   *)
(* ------------------------------------------------------------------ *)

module Adaptive = Bionav_adaptive.Adaptive

(* Expand every session of every workload query to exhaustion through the
   engine and report (expands, wall ms): the EXPAND hot path with
   whatever evidence plumbing the config enables. *)
let adaptive_drain_workload w ~fuel ~adaptive =
  (* Pin a strategy whose params fingerprint is NOT the default so
     [Engine.effective_strategy] never substitutes the learned model:
     both arms then compute identical cuts and the measured delta is
     purely the evidence pipeline (observes + periodic model rebuilds). *)
  let pinned =
    Navigation.bionav
      ~params:{ Probability.default_params with Probability.upper_threshold = 51 }
      ()
  in
  let config =
    if adaptive then
      { Engine.default_config with Engine.adaptive = Some Adaptive.default_config }
    else Engine.default_config
  in
  let engine =
    Engine.create ~config ~database:w.Q.database ~eutils:w.Q.eutils ()
  in
  let expands = ref 0 in
  let t0 = Timing.now_ms () in
  List.iter
    (fun q ->
      match Engine.search engine ~strategy:pinned q.Q.keyword with
      | Ok (Engine.Session s) ->
          let rec loop fuel =
            if fuel > 0 then begin
              let active = Navigation.active (Engine.navigation s) in
              match
                List.find_opt (Active_tree.is_expandable active) (Active_tree.visible active)
              with
              | None -> ()
              | Some n ->
                  ignore (Engine.expand s n : int list);
                  incr expands;
                  loop (fuel - 1)
            end
          in
          loop fuel;
          ignore (Engine.close engine (Engine.session_id s) : bool)
      | Ok Engine.No_results | Error _ -> ())
    w.Q.queries;
  (!expands, Timing.now_ms () -. t0)

let adaptive_bench () =
  say "== adaptive: learned probability model (overhead gates + cost) ==";
  say "";
  let smoke = !smoke_mode in
  let w =
    if smoke then Q.build ~config:Q.small_config ~seed:workload_seed ()
    else Lazy.force workload
  in
  (* 1. Online observe: O(1) amortized counter bumps (one model rebuild
     every refresh_every observations). *)
  let ad = Adaptive.create () in
  let n_obs = if smoke then 50_000 else 400_000 in
  let n_concepts = 512 in
  let t0 = Timing.now_ms () in
  for i = 0 to n_obs - 1 do
    let concept = i mod n_concepts in
    match i mod 3 with
    | 0 -> Adaptive.observe_expand ad ~concept
    | 1 -> Adaptive.observe_show ad ~concept
    | _ -> Adaptive.observe_ignore ad ~concept
  done;
  let observe_us = (Timing.now_ms () -. t0) *. 1000. /. float_of_int n_obs in
  say "  observe: %.3f us/call over %d observations (%d concepts, refresh every %d)"
    observe_us n_obs n_concepts Adaptive.default_config.Adaptive.refresh_every;
  (* 2. The EXPAND hot path, engine-driven, static vs adaptive config.
     Interleave and keep the best of a few reps per arm to shed noise. *)
  let reps = 2 in
  (* Full-size sessions have thousands of expandable nodes; 150 EXPANDs per
     session is plenty of hot-path samples and keeps the arm comparable. *)
  let fuel = if smoke then 100_000 else 150 in
  let best arm =
    let best = ref infinity and expands = ref 0 in
    for _ = 1 to reps do
      let e, ms = adaptive_drain_workload w ~fuel ~adaptive:arm in
      expands := e;
      if ms < !best then best := ms
    done;
    (!expands, !best)
  in
  let off_expands, off_ms = best false in
  let on_expands, on_ms = best true in
  let off_us = off_ms *. 1000. /. float_of_int (max 1 off_expands) in
  let on_us = on_ms *. 1000. /. float_of_int (max 1 on_expands) in
  let overhead_us = on_us -. off_us in
  print_string
    (Table.render
       ~header:[ "adaptive"; "EXPANDs"; "us/EXPAND" ]
       [ Table.Left; Right; Right ]
       [
         [ "off"; string_of_int off_expands; Printf.sprintf "%.1f" off_us ];
         [ "on"; string_of_int on_expands; Printf.sprintf "%.1f" on_us ];
       ]);
  say "  evidence overhead on the expand path: %+.1f us/EXPAND" overhead_us;
  say "";
  (* 3. Does learning pay? Mean simulated navigation cost, static vs
     learned, per stochastic-user population, on ten seeds. Both arms of a
     seed share its training sessions and evaluation draws, so each seed
     gives one paired reduction; report their median and quartiles. *)
  let train = if smoke then 20 else 120 in
  let eval_walks = if smoke then 20 else 120 in
  let seeds = List.init 10 (fun i -> i + 1) in
  let per_seed = List.map (fun seed -> E.learned_vs_static ~train ~eval_walks ~seed w) seeds in
  let populations =
    List.map
      (fun (r : E.adaptive_run) ->
        let runs =
          Array.of_list
            (List.map (List.find (fun (s : E.adaptive_run) -> s.E.population = r.E.population))
               per_seed)
        in
        let col f = Array.map f runs in
        let reductions = col (fun s -> s.E.cost_reduction) in
        ( r.E.population,
          Stats.median (col (fun s -> s.E.static_mean_cost)),
          Stats.median (col (fun s -> s.E.learned_mean_cost)),
          reductions ))
      (List.hd per_seed)
  in
  let pct x = Printf.sprintf "%+.1f%%" (100. *. x) in
  print_string
    (Table.render
       ~header:
         [ "population"; "static cost"; "learned cost"; "reduction"; "IQR"; "seeds improved" ]
       [ Table.Left; Right; Right; Right; Right; Right ]
       (List.map
          (fun (name, static, learned, reductions) ->
            [
              name;
              Printf.sprintf "%.2f" static;
              Printf.sprintf "%.2f" learned;
              pct (Stats.median reductions);
              Printf.sprintf "[%s, %s]"
                (pct (Stats.percentile reductions 25.))
                (pct (Stats.percentile reductions 75.));
              Printf.sprintf "%d/%d"
                (Array.fold_left (fun n x -> if x > 0. then n + 1 else n) 0 reductions)
                (Array.length reductions);
            ])
          populations));
  say "  medians over seeds 1-%d; %d training sessions, %d evaluation walks per population."
    (List.length seeds) train eval_walks;
  say "";
  (* A population counts as improved when its whole interquartile range
     of paired reductions lies above 0. *)
  let wins =
    List.length
      (List.filter (fun (_, _, _, reductions) -> Stats.percentile reductions 25. > 0.) populations)
  in
  write_bench_json "BENCH_adaptive.json"
    [
      ("observe_us", Printf.sprintf "%.4f" observe_us);
      ( "expand",
        Printf.sprintf "{ \"off_us\": %.2f, \"on_us\": %.2f, \"overhead_us\": %.2f }" off_us
          on_us overhead_us );
      ("seeds", Printf.sprintf "[%s]" (String.concat ", " (List.map string_of_int seeds)));
      ( "populations",
        Printf.sprintf "[%s]"
          (String.concat ", "
             (List.map
                (fun (name, static, learned, reductions) ->
                  Printf.sprintf
                    "{ \"name\": \"%s\", \"static\": %.3f, \"learned\": %.3f, \
                     \"reduction\": %.4f, \"reduction_q1\": %.4f, \"reduction_q3\": %.4f, \
                     \"reductions\": [%s] }"
                    name static learned (Stats.median reductions)
                    (Stats.percentile reductions 25.) (Stats.percentile reductions 75.)
                    (String.concat ", "
                       (Array.to_list (Array.map (Printf.sprintf "%.4f") reductions))))
                populations)) );
      ("populations_improved", string_of_int wins);
    ];
  say "";
  (* Gates: observing must stay off the hot path's back, and learning must
     actually win on most populations. *)
  if observe_us > 20. then begin
    say "  *** FAIL: %.2f us/observe above the 20 us gate ***" observe_us;
    exit 1
  end;
  if overhead_us > 250. then begin
    say "  *** FAIL: %.1f us/EXPAND evidence overhead above the 250 us gate ***" overhead_us;
    exit 1
  end;
  if wins < 2 then begin
    say "  *** FAIL: learned model beat static (IQR above 0) on only %d of %d populations ***" wins
      (List.length populations);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Navigation spaces: derivation latency + plan cache under churn      *)
(* ------------------------------------------------------------------ *)

(* Refinement churn: repeat sessions of every workload query EXPAND the
   root, refine into the first revealed component, drill one EXPAND in the
   derived space, facet it, and unrefine back out — the access pattern the
   frame stack adds on top of plain TOPDOWN. Round 1 derives every space
   cold; later rounds revisit identical space ids, so their cuts must come
   out of the plan cache (the hit rate is gated). The per-dimension
   derivation histograms time the derive step itself, and the workload's
   refinement-vs-TOPDOWN simulation supplies the cost comparison. *)
let navspace_bench () =
  say "%s" (Table.section "Navigation spaces: derivation, refinement churn, facet cost");
  say "";
  let w = Q.build ~config:Q.small_config ~seed:workload_seed () in
  let queries = Array.of_list w.Q.queries in
  Metrics.reset ();
  let rounds = if !smoke_mode then 3 else 8 in
  let engine =
    Engine.create
      ~config:
        { Engine.default_config with
          Engine.prefetch = Some Bionav_prefetch.Prefetch.default_config }
      ~database:w.Q.database ~eutils:w.Q.eutils ()
  in
  let sessions = ref 0 and refines = ref 0 and facets = ref 0 in
  for _ = 1 to rounds do
    Array.iter
      (fun (q : Q.query) ->
        match Engine.search engine q.Q.keyword with
        | Ok (Engine.Session s) ->
            incr sessions;
            (match Engine.expand s (Nav_tree.root (Engine.session_nav s)) with
            | [] -> ()
            | node :: _ -> (
                match Engine.refine s node with
                | (_ : int) ->
                    incr refines;
                    ignore
                      (Engine.expand s (Nav_tree.root (Engine.session_nav s)) : int list);
                    (match Engine.facet s with
                    | (_ : int) ->
                        incr facets;
                        ignore (Engine.unrefine s : bool)
                    | exception Invalid_argument _ -> ());
                    ignore (Engine.unrefine s : bool)
                | exception Invalid_argument _ -> ()));
            ignore (Engine.close engine (Engine.session_id s) : bool)
        | Ok Engine.No_results | Error _ -> ())
      queries
  done;
  let dhist = Metrics.histogram "bionav_space_derivation_ms_descriptor" in
  let qhist = Metrics.histogram "bionav_space_derivation_ms_qualifier" in
  let hit_rate = Engine.plan_cache_hit_rate engine in
  print_string
    (Table.render
       ~header:[ "dimension"; "derivations"; "p50"; "p95" ]
       [ Table.Left; Right; Right; Right ]
       [
         [ "descriptor"; string_of_int (Metrics.count dhist);
           Printf.sprintf "%.3f ms" (Metrics.percentile dhist 50.);
           Printf.sprintf "%.3f ms" (Metrics.percentile dhist 95.) ];
         [ "qualifier"; string_of_int (Metrics.count qhist);
           Printf.sprintf "%.3f ms" (Metrics.percentile qhist 50.);
           Printf.sprintf "%.3f ms" (Metrics.percentile qhist 95.) ];
       ]);
  say "";
  say "  %d sessions over %d rounds: %d refinements, %d facet cuts;" !sessions rounds
    !refines !facets;
  say "  plan-cache hit rate under refinement churn: %.0f%%" (100. *. hit_rate);
  say "";
  let space_runs = E.refinement_vs_topdown w in
  print_string (R.space_table space_runs);
  say "";
  let mean f =
    match space_runs with
    | [] -> 0.
    | _ ->
        List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0. space_runs
        /. float_of_int (List.length space_runs)
  in
  let td_mean = mean (fun (r : E.space_run) -> r.E.topdown_cost) in
  let refine_mean = mean (fun (r : E.space_run) -> r.E.refine_cost) in
  let facet_mean = mean (fun (r : E.space_run) -> r.E.facet_cost) in
  let derivation h =
    Printf.sprintf "{ \"count\": %d, \"p50_ms\": %.4f, \"p95_ms\": %.4f }" (Metrics.count h)
      (Metrics.percentile h 50.) (Metrics.percentile h 95.)
  in
  write_bench_json "BENCH_navspace.json"
    [
      ("rounds", string_of_int rounds);
      ("sessions", string_of_int !sessions);
      ("refinements", string_of_int !refines);
      ("facet_cuts", string_of_int !facets);
      ( "derivation",
        json_obj ~indent:"  "
          [ ("descriptor", derivation dhist); ("qualifier", derivation qhist) ] );
      ("plan_cache_hit_rate", Printf.sprintf "%.4f" hit_rate);
      ( "cost",
        Printf.sprintf "{ \"topdown_mean\": %.2f, \"refine_mean\": %.2f, \"facet_mean\": %.2f }"
          td_mean refine_mean facet_mean );
      ( "per_query",
        Printf.sprintf "[%s]"
          (String.concat ", "
             (List.map
                (fun (r : E.space_run) ->
                  Printf.sprintf
                    "{ \"query\": \"%s\", \"topdown\": %d, \"refine\": %d, \"facet\": %d }"
                    r.E.space_query.Q.spec.Q.name r.E.topdown_cost r.E.refine_cost
                    r.E.facet_cost)
                space_runs)) );
    ];
  say "";
  if !refines = 0 then begin
    say "  *** FAIL: the churn loop performed no refinements ***";
    exit 1
  end;
  if hit_rate < 0.5 then begin
    say "  *** FAIL: plan-cache hit rate %.0f%% below the 50%% floor ***" (100. *. hit_rate);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Warm start: what a snapshot saves a restarted server                  *)
(* ------------------------------------------------------------------ *)

(* A restart's first pass over the workload: a search, a root EXPAND and
   a close per query, on a fresh engine with the plan cache on. Three
   boots take turns in each round, in a rotating order: a cold engine, a
   snapshot load ([Engine.load_snapshot]) and [Engine.warm]. A sample is
   the boot plus the first pass; engine creation and a full major GC
   before each run stay outside it. *)
let warmstart_bench () =
  say "%s" (Table.section "Warm start: first pass after a restart, cold vs snapshot vs warm");
  say "";
  let rounds = if !smoke_mode then 7 else 15 in
  let scales =
    ("small", lazy (Q.build ~config:Q.small_config ~seed:workload_seed ()))
    :: (if !smoke_mode then [] else [ ("full", workload) ])
  in
  let config =
    { Engine.default_config with
      Engine.prefetch = Some Bionav_prefetch.Prefetch.default_config }
  in
  let arms = [ "cold"; "snapshot"; "warm" ] in
  let run_scale (scale, w) =
    let w = Lazy.force w in
    let queries = List.map (fun (q : Q.query) -> q.Q.keyword) w.Q.queries in
    let fresh () = Engine.create ~config ~database:w.Q.database ~eutils:w.Q.eutils () in
    let path = Filename.temp_file "bionav_warmstart" ".bin" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let e = fresh () in
        Engine.save_snapshot e (Engine.warm e queries) path;
        let first_pass e =
          List.iter
            (fun q ->
              match Engine.search e q with
              | Ok (Engine.Session s) ->
                  ignore (Engine.expand s (Nav_tree.root (Engine.session_nav s)) : int list);
                  ignore (Engine.close e (Engine.session_id s) : bool)
              | Ok Engine.No_results | Error _ -> ())
            queries
        in
        let boot e = function
          | "snapshot" -> ignore (Engine.load_snapshot e path : int)
          | "warm" -> ignore (Engine.warm e queries : Bionav_store.Snapshot.entry list)
          | _ -> ()
        in
        let samples = List.map (fun arm -> (arm, Array.make rounds 0.)) arms in
        for r = 0 to rounds - 1 do
          List.iteri
            (fun i _ ->
              let arm = List.nth arms ((i + r) mod List.length arms) in
              let e = fresh () in
              Gc.full_major ();
              let (), ms = Timing.time (fun () -> boot e arm; first_pass e) in
              (List.assoc arm samples).(r) <- ms)
            arms
        done;
        (scale, List.length queries, samples))
  in
  let results = List.map run_scale scales in
  let quartiles xs = (Stats.percentile xs 25., Stats.median xs, Stats.percentile xs 75.) in
  print_string
    (Table.render
       ~header:[ "scale"; "queries"; "boot"; "n"; "median"; "IQR"; "vs cold" ]
       [ Table.Left; Right; Left; Right; Right; Right; Right ]
       (List.concat_map
          (fun (scale, n_queries, samples) ->
            let cold = Stats.median (List.assoc "cold" samples) in
            List.map
              (fun (arm, xs) ->
                let p25, p50, p75 = quartiles xs in
                [ scale; string_of_int n_queries; arm; string_of_int (Array.length xs);
                  Printf.sprintf "%.2f ms" p50; Printf.sprintf "%.2f-%.2f ms" p25 p75;
                  Printf.sprintf "%+.0f%%" (100. *. ((p50 /. cold) -. 1.)) ])
              samples)
          results));
  say "";
  say "  Each sample: the boot (none, snapshot load or Engine.warm) plus one";
  say "  search, root EXPAND and close per query, on a fresh engine (prefetch on).";
  write_bench_json "BENCH_warmstart.json"
    (List.map
       (fun (scale, n_queries, samples) ->
         ( scale,
           json_obj ~indent:"  "
             (("queries", string_of_int n_queries)
             :: List.map
                  (fun (arm, xs) ->
                    let p25, p50, p75 = quartiles xs in
                    ( arm ^ "_ms",
                      Printf.sprintf
                        "{ \"n\": %d, \"median\": %.4f, \"p25\": %.4f, \"p75\": %.4f }"
                        (Array.length xs) p50 p25 p75 ))
                  samples) ))
       results);
  say "";
  List.iter
    (fun (scale, _, samples) ->
      let median arm = Stats.median (List.assoc arm samples) in
      if median "snapshot" >= median "cold" then begin
        say "  *** FAIL: %s: the snapshot boot + first pass (%.2f ms) is not below the cold \
             first pass (%.2f ms) ***"
          scale (median "snapshot") (median "cold");
        exit 1
      end)
    results

let targets =
  [
    ("table1", table1);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("baseline-paged", baseline_paged);
    ("ablation-opt", ablation_opt);
    ("ablation-k", ablation_k);
    ("ablation-expandcost", ablation_expandcost);
    ("ablation-reuse", ablation_reuse);
    ("ablation-selectivity", ablation_selectivity);
    ("ablation-thresholds", ablation_thresholds);
    ("montecarlo", montecarlo);
    ("theorem1", theorem1);
    ("stability", stability);
    ("opt-wall", opt_wall);
    ("calibration", calibration);
    ("micro", micro);
    ("prefetch", prefetch_bench);
    ("docset", docset_bench);
    ("ingest", ingest_bench);
    ("coldexpand", coldexpand_bench);
    ("serve", serve_bench);
    ("adaptive", adaptive_bench);
    ("navspace", navspace_bench);
    ("warmstart", warmstart_bench);
    ("csv", csv);
  ]

(* "csv", "prefetch", "docset", "ingest", "coldexpand",
   "serve", "adaptive", "navspace" and "warmstart" write files rather
   than (only) printing;
   keep them out of the default everything-run so
   `bench/main.exe > bench_output.txt` stays pure. *)
let default_targets =
  List.filter
    (fun (n, _) ->
      not
        (List.mem n
           [ "csv"; "prefetch"; "docset"; "ingest"; "coldexpand"; "serve";
             "adaptive"; "navspace"; "warmstart" ]))
    targets

let () =
  let args = match Array.to_list Sys.argv with _ :: args -> args | [] -> [] in
  let flags, names = List.partition (fun a -> a = "--smoke") args in
  if flags <> [] then smoke_mode := true;
  let requested = match names with [] -> List.map fst default_targets | _ -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          say "unknown bench target %S; available: %s" name
            (String.concat " " (List.map fst targets));
          exit 2)
    requested
