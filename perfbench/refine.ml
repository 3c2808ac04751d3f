(* refine: query-by-navigation against the out-of-core segment store.
   Each session searches, expands the root, refines on a seeded revealed
   node (and, in half the scripts, once more inside the refined space),
   expanding each new space's root, opens the facet space of the current
   result set and expands it, unrefines back to the base space and
   closes. The scripts reach far more distinct navigation spaces than
   the 32-entry tree cache holds, so space derivation, cache eviction and
   segment block decode sit on the blocking path; segment ingest is part
   of set-up. *)

open Bionav_util
open Bionav_core
open Common
module Seg = Bionav_segstore
module Nav_snapshot = Bionav_search.Nav_snapshot

let n_scripts = 48

type script = { q : int; pick1 : int; pick2 : int option }

(* The sessions of one query pick revealed nodes round-robin (in the
   schedule's stratum order) from a seeded offset, and every other one
   refines a second time, so each query's revealed nodes are covered
   evenly whatever the seed; the seed moves the offsets and the order. *)
let gen_scripts rng =
  let k = List.length keywords in
  let offsets = Array.init k (fun _ -> (Rng.int rng 1_000, Rng.int rng 1_000, Rng.int rng 2)) in
  Array.map
    (fun (q, j) ->
      let o1, o2, parity = offsets.(q) in
      { q; pick1 = o1 + j; pick2 = (if (j + parity) mod 2 = 0 then Some (o2 + (j / 2)) else None) })
    (Schedule.zipf_schedule rng ~n:n_scripts ~k)

let script_digest scripts =
  digest_strings
    (Array.to_list
       (Array.map
          (fun s ->
            Printf.sprintf "refine %d %d %s" s.q s.pick1
              (match s.pick2 with Some p -> string_of_int p | None -> "-"))
          scripts))

let pick revealed p = List.nth revealed (p mod List.length revealed)

(* One session's observable navigation: per EXPAND, the space it ran in
   and the nodes it revealed. *)
type steps = (string * int list) list

let cost_of (steps : steps) = List.fold_left (fun acc (_, r) -> acc + 1 + List.length r) 0 steps

(* The session protocol, written once over an abstract backend so the
   engine run and the in-memory replay cannot drift apart. [expand_root]
   returns the sorted revealed nodes of the current space's root;
   [refine n] and [facet ()] push a space and return its id. *)
type backend = {
  expand_root : unit -> int list;
  refine : int -> string;
  facet : unit -> string;
}

let protocol b s =
  let steps = ref [] in
  let space = ref "descriptor" in
  let expand () =
    let r = b.expand_root () in
    if r <> [] then steps := (!space, r) :: !steps;
    r
  in
  let r0 = expand () in
  if r0 <> [] then begin
    space := b.refine (pick r0 s.pick1);
    let r1 = expand () in
    match s.pick2 with
    | Some p when r1 <> [] ->
        space := b.refine (pick r1 p);
        ignore (expand () : int list)
    | _ -> ()
  end;
  space := b.facet ();
  ignore (expand () : int list);
  List.rev !steps

(* The in-memory reference: the same derivations on the in-memory
   database, navigated by detached sessions. Spaces and their first cut
   are memoized by space id, as in the engine's cache. *)
let replay ~database ~medline ~eutils scripts =
  let deriver = Nav_space.deriver ~medline database in
  (* space key (query | space id) -> tree and the sorted cut of its root *)
  let spaces = Hashtbl.create 256 in
  let first_cut strategy nav =
    if Nav_tree.size nav < 2 then []
    else List.sort Int.compare (Navigation.expand (Engine.start strategy nav) (Nav_tree.root nav))
  in
  List.iter
    (fun kw ->
      let nav = Nav_tree.of_database database (Eutils.esearch eutils kw) in
      Hashtbl.replace spaces (kw ^ "|descriptor") (nav, first_cut (Navigation.bionav ()) nav))
    keywords;
  let runs =
    Array.map
      (fun s ->
        let kw = List.nth keywords s.q in
        let path = ref "descriptor" in
        let key () = kw ^ "|" ^ !path in
        let push suffix dim node =
          let parent, _ = Hashtbl.find spaces (key ()) in
          path := !path ^ suffix;
          if not (Hashtbl.mem spaces (key ())) then begin
            let nav = Nav_space.derive deriver dim (Nav_tree.subtree_results parent node) in
            let strategy =
              match dim with
              | Nav_space.Descriptor -> Navigation.bionav ()
              | Nav_space.Qualifier_facet -> Navigation.faceted ()
            in
            Hashtbl.replace spaces (key ()) (nav, first_cut strategy nav)
          end;
          !path
        in
        protocol
          {
            expand_root = (fun () -> snd (Hashtbl.find spaces (key ())));
            refine =
              (fun n ->
                let parent, _ = Hashtbl.find spaces (key ()) in
                let id = Printf.sprintf ">refine:%d" (Nav_tree.concept_id parent n) in
                push id Nav_space.Descriptor n);
            facet =
              (fun () ->
                let parent, _ = Hashtbl.find spaces (key ()) in
                push ">facets" Nav_space.Qualifier_facet (Nav_tree.root parent));
          }
          s
        |> List.map (fun (sp, r) -> (kw ^ "|" ^ sp, r)))
      scripts
  in
  (runs, spaces)

(* Structural equality of two navigation trees: same nodes, concepts and
   per-node result sets. *)
let same_tree a b =
  Nav_tree.size a = Nav_tree.size b
  &&
  let ok = ref true in
  for n = 0 to Nav_tree.size a - 1 do
    if
      Nav_tree.concept_id a n <> Nav_tree.concept_id b n
      || not (Docset.equal (Nav_tree.results a n) (Nav_tree.results b n))
    then ok := false
  done;
  !ok

type sys = { base : system; dir : string; summary : Seg.Ingest.summary; ingest_s : float }

let run ~seed ~seconds ~trace () =
  let medline = load_corpus () in
  let rep = ref 0 in
  let sys, setup_s, setup_times =
    timed_setup
      ~dispose:(fun s -> rm_rf s.dir)
      (fun () ->
        incr rep;
        let dir = Filename.concat work_dir (Printf.sprintf "seg-%d-%d" (Unix.getpid ()) !rep) in
        rm_rf dir;
        let database = Database.of_medline medline in
        let eutils = Eutils.create medline in
        let summary, ingest_ms = Kit.time_ms (fun () -> Seg.Ingest.ingest_medline ~dir medline) in
        (* The block cache holds at most an eighth of the segment bytes. *)
        let spec_config =
          { Seg.Store.default_config with
            Seg.Store.cache_budget_bytes = summary.Seg.Ingest.bytes / 8 }
        in
        let config =
          { Engine.default_config with
            Engine.segstore = Some (Seg.Store.spec ~config:spec_config dir) }
        in
        let engine = Engine.create ~config ~database ~eutils () in
        warm_by_search engine;
        { base = { database; eutils; engine }; dir; summary; ingest_s = ingest_ms /. 1000. })
  in
  Fun.protect ~finally:(fun () -> rm_rf sys.dir) @@ fun () ->
  let engine = sys.base.engine in
  let scripts = gen_scripts (Rng.create seed) in
  (* The in-memory reference: expected cuts per script, and every space
     the scripts reach, derived from the in-memory database. *)
  let expected, spaces =
    replay ~database:sys.base.database ~medline ~eutils:sys.base.eutils scripts
  in
  let tl = tally () in
  let tr = Trace.create () in
  let expand_ms = Kit.samples () and search_ms = Kit.samples () and refine_ms = Kit.samples () in
  let op_ms = Kit.samples () and expand_self = Kit.samples () in
  (* Each space the engine served, kept for the check against the
     in-memory derivation after the run. *)
  let served : (string, Nav_tree.t) Hashtbl.t = Hashtbl.create 256 in
  let sessions = ref 0 in
  let exception Abort in
  let session i =
    let s = scripts.(i) in
    let group = !sessions in
    let parent =
      if trace then Trace.enter tr ~group ~parent:Trace.root ~layer:"bench" "session"
      else Trace.root
    in
    let op name f =
      match attempt tl name (fun () -> engine_call ~trace tr op_ms ~group ~parent name f) with
      | Some r -> r
      | None -> raise Abort
    in
    let kw = List.nth keywords s.q in
    (try
       match op "search" (fun () -> Engine.search engine kw) with
       | Ok (Engine.Session sess), ms, _ ->
           Kit.add search_ms ms;
           let record_space () =
             let key = kw ^ "|" ^ Engine.space_id sess in
             if not (Hashtbl.mem served key) then
               Hashtbl.replace served key (Engine.session_nav sess);
             Engine.space_id sess
           in
           ignore (record_space () : string);
           let base_visible = ref [] in
           let steps =
             protocol
               {
                 expand_root =
                   (fun () ->
                     let root = Nav_tree.root (Engine.session_nav sess) in
                     let r, ms, nav_ms = op "expand" (fun () -> Engine.expand sess root) in
                     Kit.add expand_ms ms;
                     if trace then Kit.add expand_self (ms -. nav_ms);
                     if Engine.refine_depth sess = 0 then
                       base_visible := Nav_snapshot.visible (Engine.snapshot sess);
                     List.sort Int.compare r);
                 refine =
                   (fun n ->
                     let _, ms, _ = op "refine" (fun () -> Engine.refine sess n) in
                     Kit.add refine_ms ms;
                     record_space ());
                 facet =
                   (fun () ->
                     ignore (op "facet" (fun () -> Engine.facet sess) : int * float * float);
                     record_space ());
               }
               s
           in
           let rec unwind () =
             let more, _, _ = op "unrefine" (fun () -> Engine.unrefine sess) in
             if more then unwind ()
           in
           unwind ();
           let snap = Engine.snapshot sess in
           if
             Nav_snapshot.space snap <> "descriptor"
             || Nav_snapshot.refine_depth snap <> 0
             || Nav_snapshot.visible snap <> !base_visible
           then fail_op tl (Printf.sprintf "script %d: unrefine did not restore the base space" i);
           if List.map (fun (sp, r) -> (kw ^ "|" ^ sp, r)) steps <> expected.(i) then
             fail_op tl
               (Printf.sprintf "script %d: engine cuts differ from the in-memory replay" i);
           let closed, _, _ = op "close" (fun () -> Engine.close engine (Engine.session_id sess)) in
           if not closed then fail_op tl "close: unknown session"
       | (Ok Engine.No_results | Error _), _, _ -> fail_op tl "search: no session"
     with Abort -> ());
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
  let elapsed_s = (Kit.now_ms () -. t0 -. Kit.sum ref_ms) /. 1000. in
  let c1 = read_counters () in
  Hashtbl.iter
    (fun key nav ->
      match Hashtbl.find_opt spaces key with
      | Some (mem, _) when same_tree nav mem -> ()
      | Some _ -> fail_op tl ("derived space " ^ key ^ " differs from its in-memory derivation")
      | None -> fail_op tl ("derived space " ^ key ^ " missing from the replay"))
    served;
  let nav_cost_mean =
    float_of_int (Array.fold_left (fun acc st -> acc + cost_of st) 0 expected)
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
      pct "refine_p50_ms" refine_ms 50.; pct "refine_p95_ms" refine_ms 95.;
      metric ~n:(Hashtbl.length served) "distinct_spaces" "count"
        (float_of_int (Hashtbl.length served));
      metric ~n:(Kit.count ref_ms) "ref_ms" "ms" (Kit.mean ref_ms) ]
  in
  let layers =
    if not trace then []
    else
      Layers.metrics
        { (Layers.empty_input ~c0 ~c1 ~engine ~trace:tr) with
          Layers.ops = tl.attempted; expand_self; ingest_s = sys.ingest_s;
          bytes_per_association =
            ratio
              (float_of_int sys.summary.Seg.Ingest.bytes)
              (float_of_int sys.summary.Seg.Ingest.n_associations) }
  in
  ( { attempted = tl.attempted; failed = tl.failed; problems = List.rev tl.problems;
      metrics = metrics @ layers;
      extra =
        [ ("scripts", Kit.Num (float_of_int n_scripts));
          ("script_digest", Kit.Str (script_digest scripts));
          ("setup_times_s", Kit.Arr (List.map (fun x -> Kit.Num x) setup_times));
          ("segment_bytes", Kit.Num (float_of_int sys.summary.Seg.Ingest.bytes)) ] },
    tr )
