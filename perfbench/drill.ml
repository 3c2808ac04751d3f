(* drill: the paper's Fig. 8/10/11 protocol against the engine, one
   closed-loop client, prefetch off, corpus in memory. Each session
   searches, drills down oracle-style (always expanding the component
   that holds the target) to a seeded target node, lists the target's
   results and closes. No plan cache and a warm tree cache: every EXPAND
   reruns Heuristic-ReducedOpt, so the solver dominates. *)

open Bionav_util
open Bionav_core
open Common

(* Sessions in a script set; a run gets through most of it once. *)
let n_scripts = 160

(* Candidate targets drawn per script slot; see [gen_scripts]. *)
let pool_factor = 4

(* The cut sequence of one session: (expanded node, revealed nodes). *)
type steps = (int * int list) list

type script = { q : int; target : int; expected : steps }

let cost_of (steps : steps) =
  List.fold_left (fun acc (_, r) -> acc + 1 + List.length r) 0 steps

(* The detached oracle drill to [target] (see [memo_expand]). *)
let replay memo strategy navs q target =
  let nav = Engine.start strategy navs.(q) in
  let act = Navigation.active nav in
  let rec go path acc =
    if Active_tree.is_visible act target then List.rev acc
    else begin
      let root = Active_tree.component_root_of act target in
      let revealed = memo_expand memo ~q nav path root in
      if revealed = [] then failwith "replay: EXPAND revealed nothing";
      go (root :: path) ((root, revealed) :: acc)
    end
  in
  go [] []

(* Targets are stratified twice. Each query's candidates split its
   non-root nodes, ordered by depth, into equal strata with one seeded
   draw each; the detached replay then gives every candidate its oracle
   cost, and the query's scripts take one candidate (seeded) from each
   group of [pool_factor] neighbours in cost order. How deep a target is
   says little about what reaching it costs, so the second step is what
   keeps the mix of cheap and expensive sessions the same for every
   seed; the seed still moves every target and the session order. The
   replay also yields each script's expected cut sequence. *)
let gen_scripts rng strategy navs =
  let k = Array.length navs in
  let counts = Schedule.zipf_counts ~n:n_scripts ~k in
  let memo = Hashtbl.create 1024 in
  let per_query =
    Array.mapi
      (fun q nav ->
        let by_depth =
          List.init (Nav_tree.size nav) Fun.id
          |> List.filter (fun n -> n <> Nav_tree.root nav)
          |> List.stable_sort (fun a b -> Int.compare (Nav_tree.depth nav a) (Nav_tree.depth nav b))
          |> Array.of_list
        in
        let m = Array.length by_depth and c = counts.(q) * pool_factor in
        let scored =
          Array.init c (fun j ->
              let lo = j * m / c and hi = (j + 1) * m / c in
              let target = by_depth.(lo + Rng.int rng (max 1 (hi - lo))) in
              let expected = replay memo strategy navs q target in
              { q; target; expected })
        in
        Array.stable_sort (fun a b -> Int.compare (cost_of a.expected) (cost_of b.expected)) scored;
        Array.init counts.(q) (fun j -> scored.((j * pool_factor) + Rng.int rng pool_factor)))
      navs
  in
  Array.map (fun (q, j) -> per_query.(q).(j)) (Schedule.zipf_schedule rng ~n:n_scripts ~k)

let script_digest scripts =
  digest_strings
    (Array.to_list (Array.map (fun s -> Printf.sprintf "drill %d %d" s.q s.target) scripts))

type stage = { stage : 'a. string -> (unit -> 'a) -> 'a }

(* Heuristic-ReducedOpt replayed through its public stage functions, each
   stage timed — the same steps as [Heuristic.best_cut_with_plan]. *)
let staged_cut ~model ~k { stage } comp =
  let solve tree =
    let ctx = stage "cost_model" (fun () -> Cost_model.create ~model tree) in
    stage "opt_edgecut" (fun () ->
        let st = Opt_edgecut.init ctx in
        (Opt_edgecut.solve_mask st (Cost_model.full_mask ctx)).Opt_edgecut.cut_children)
  in
  let cut =
    if Comp_tree.size comp <= k then solve comp
    else
      let part = stage "partition" (fun () -> Partition.run_k comp ~k) in
      let reduced = stage "reduced_tree" (fun () -> Reduced_tree.build comp part) in
      let rt = Reduced_tree.tree reduced in
      if Comp_tree.size rt < 2 then Comp_tree.children comp (Comp_tree.root comp)
      else Reduced_tree.map_cut_children reduced (solve rt)
  in
  List.sort Int.compare (List.map (Comp_tree.tag comp) cut)

let run ~seed ~seconds ~trace () =
  let medline = load_corpus () in
  let sys, setup_s, setup_times =
    timed_setup ~dispose:ignore (fun () ->
        let database = Database.of_medline medline in
        let eutils = Eutils.create medline in
        let engine = Engine.create ~database ~eutils () in
        warm_by_search engine;
        { database; eutils; engine })
  in
  let engine = sys.engine in
  let navs = base_navs engine in
  let strategy = Navigation.bionav () in
  let k, model =
    match strategy with
    | Navigation.Heuristic { k; model; _ } -> (k, model)
    | _ -> invalid_arg "drill: the paper's strategy is Heuristic"
  in
  let scripts = gen_scripts (Rng.create seed) strategy navs in
  let tl = tally () in
  let tr = Trace.create () in
  let expand_ms = Kit.samples () and search_ms = Kit.samples () and op_ms = Kit.samples () in
  let expand_self = Kit.samples () and reduced_sizes = Kit.samples () in
  let stages =
    List.map
      (fun n -> (n, Kit.samples ()))
      [ "partition"; "reduced_tree"; "cost_model"; "opt_edgecut" ]
  in
  let sessions = ref 0 in
  (* Traced runs replay every EXPAND's component through the solver stages
     on a detached mirror of the session; the replayed cut must be the
     engine's, and the mirror then applies it. *)
  let replay_stages ~group ~parent mirror root revealed =
    let replayed =
      Trace.timed tr ~group ~parent ~layer:"bench.replay" "staged_cut" (fun rid ->
          let stage name f =
            let start_ms = Kit.now_ms () in
            let r = f () in
            let end_ms = Kit.now_ms () in
            ignore
              (Trace.add_timed tr ~group ~parent:rid ~layer:"bench.replay.stage" name ~start_ms
                 ~end_ms
                : int);
            Kit.add (List.assoc name stages) (end_ms -. start_ms);
            r
          in
          let comp, _ = Active_tree.comp_tree (Navigation.active mirror) root in
          staged_cut ~model ~k { stage } comp)
    in
    if replayed <> revealed then
      fail_op tl (Printf.sprintf "staged replay cut differs at node %d" root);
    ignore
      (Active_tree.apply_cut (Navigation.active mirror) ~root ~cut_children:replayed : int list)
  in
  let session i =
    let s = scripts.(i) in
    let group = !sessions in
    let parent =
      if trace then Trace.enter tr ~group ~parent:Trace.root ~layer:"bench" "session"
      else Trace.root
    in
    let call name f =
      attempt tl name (fun () -> engine_call ~trace tr op_ms ~group ~parent name f)
    in
    (match call "search" (fun () -> Engine.search engine (List.nth keywords s.q)) with
    | Some (Ok (Engine.Session sess), ms, _) ->
        Kit.add search_ms ms;
        let act = Navigation.active (Engine.navigation sess) in
        let mirror = if trace then Some (Engine.start strategy navs.(s.q)) else None in
        (* The oracle: always expand the component holding the target. *)
        let rec drill acc =
          if Active_tree.is_visible act s.target then Some (List.rev acc)
          else
            let root = Active_tree.component_root_of act s.target in
            match call "expand" (fun () -> Engine.expand sess root) with
            | None -> None
            | Some ([], _, _) ->
                fail_op tl "EXPAND revealed nothing";
                None
            | Some (revealed, ms, nav_ms) ->
                Kit.add expand_ms ms;
                let revealed = List.sort Int.compare revealed in
                Option.iter
                  (fun m ->
                    Kit.add expand_self (ms -. nav_ms);
                    replay_stages ~group ~parent m root revealed)
                  mirror;
                drill ((root, revealed) :: acc)
        in
        let steps = drill [] in
        let stats = Navigation.stats (Engine.navigation sess) in
        if trace then
          List.iter
            (fun (r : Navigation.expand_record) ->
              if r.Navigation.reduced_size > 0 then
                Kit.add reduced_sizes (float_of_int r.Navigation.reduced_size))
            stats.Navigation.history;
        Option.iter
          (fun steps ->
            if Navigation.navigation_cost stats <> cost_of steps then
              fail_op tl "engine cost accounting disagrees";
            if steps <> s.expected then
              fail_op tl
                (Printf.sprintf "script %d: engine cuts differ from the detached replay" i);
            match call "show_results" (fun () -> Engine.show_results sess s.target) with
            | Some (docs, _, _)
              when Docset.cardinal docs <> Active_tree.component_distinct act s.target ->
                fail_op tl "SHOWRESULTS count differs from the displayed count"
            | _ -> ())
          steps;
        (match call "close" (fun () -> Engine.close engine (Engine.session_id sess)) with
        | Some (false, _, _) -> fail_op tl "close: unknown session"
        | _ -> ())
    | Some ((Ok Engine.No_results | Error _), _, _) -> fail_op tl "search: no session"
    | None -> ());
    if trace then Trace.leave tr parent;
    incr sessions
  in
  let c0 = read_counters () in
  let t0 = Kit.now_ms () in
  let deadline = t0 +. (1000. *. float_of_int seconds) in
  let i = ref 0 in
  let ref_ms = Kit.samples () in
  while Kit.now_ms () < deadline do
    session (!i mod n_scripts);
    ref_probe ref_ms;
    incr i
  done;
  (* Speed probes and verification replays are not the engine's time. *)
  let elapsed_s =
    (Kit.now_ms () -. t0 -. Kit.sum ref_ms -. Trace.layer_total_ms tr "bench.replay") /. 1000.
  in
  let c1 = read_counters () in
  let nav_cost_mean =
    float_of_int (Array.fold_left (fun acc s -> acc + cost_of s.expected) 0 scripts)
    /. float_of_int n_scripts
  in
  let nt = at_nominal_time ref_ms and pct = nominal_pct ref_ms in
  let metrics =
    [ metric ~n:setup_reps "setup_s" "s" setup_s; metric ~n:1 "peak_rss_mb" "MiB" (peak_rss_mb ());
      metric ~n:!sessions "sessions_per_s" "sessions/s"
        (at_nominal_rate ref_ms (float_of_int !sessions /. elapsed_s));
      metric ~n:(Kit.count expand_ms) "expand_mean_ms" "ms" (nt (Kit.mean expand_ms));
      pct "expand_p50_ms" expand_ms 50.; pct "expand_p99_ms" expand_ms 99.;
      pct "search_p50_ms" search_ms 50.; pct "search_p95_ms" search_ms 95.;
      metric ~n:n_scripts "nav_cost_mean" "concepts" nav_cost_mean;
      metric ~n:(Kit.count op_ms) "op_mean_ms" "ms" (nt (Kit.mean op_ms));
      pct "op_p50_ms" op_ms 50.; pct "op_p99_ms" op_ms 99.;
      metric ~n:(Kit.count ref_ms) "ref_ms" "ms" (Kit.mean ref_ms) ]
  in
  let layers =
    if not trace then []
    else
      Layers.metrics
        { (Layers.empty_input ~c0 ~c1 ~engine ~trace:tr) with
          Layers.ops = tl.attempted; expand_self; reduced_sizes; stages }
  in
  ( { attempted = tl.attempted; failed = tl.failed; problems = List.rev tl.problems;
      metrics = metrics @ layers;
      extra =
        [ ("scripts", Kit.Num (float_of_int n_scripts));
          ("script_digest", Kit.Str (script_digest scripts));
          ("setup_times_s", Kit.Arr (List.map (fun x -> Kit.Num x) setup_times)) ] },
    tr )
