(* What every workload shares: the corpus, machine-speed normalization,
   timed set-up, program-counter deltas and their attribution to spans,
   the provenance stamp and the result record. *)

open Bionav_util
open Bionav_core
module Q = Bionav_workload.Queries
module Engine = Bionav_engine.Engine
module Database = Bionav_store.Database
module Eutils = Bionav_search.Eutils
module Medline = Bionav_corpus.Medline

(* Scratch space inside the checkout; the build directory is already
   ignored by git. *)
let work_dir = ".bench_build/perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

(* --- corpus ------------------------------------------------------------ *)

(* The corpus is the paper-scale synthetic MEDLINE, always built from the
   repository's workload seed: it plays the part of PubMed, so it is the
   same for every benchmark seed, and the seed only shapes the user
   scripts run against it. Generating it takes ~10 s, which is input
   generation rather than work of the system under test, so the first
   run in a checkout caches it next to the build, keyed by the digest of
   the benchmark binary (any change to the program regenerates it). *)
let corpus_seed = 11

let keywords = List.map (fun s -> s.Q.name) Q.paper_specs

let load_corpus () : Medline.t =
  mkdir_p work_dir;
  let key = Digest.to_hex (Digest.file Sys.executable_name) in
  let name = "corpus-" ^ key ^ ".bin" in
  let path = Filename.concat work_dir name in
  if not (Sys.file_exists path) then begin
    Array.iter
      (fun f ->
        if String.length f > 7 && String.sub f 0 7 = "corpus-" then
          rm_rf (Filename.concat work_dir f))
      (Sys.readdir work_dir);
    (* Generate in a child process, so that the generator's garbage never
       counts in this process's peak resident set. *)
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let w = Q.build ~seed:corpus_seed () in
            let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
            Out_channel.with_open_bin tmp (fun oc -> Marshal.to_channel oc w.Q.medline []);
            Sys.rename tmp path;
            0
          with e ->
            prerr_endline ("perfbench: corpus generation failed: " ^ Printexc.to_string e);
            1
        in
        Unix._exit code
    | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "corpus generation failed")
  end;
  In_channel.with_open_bin path Marshal.from_channel

(* --- machine speed ------------------------------------------------------ *)

(* The machine the benchmark shares can run this process 20-30% faster
   or slower from one minute to the next, which swamps any change worth
   measuring. So every run also times [Kit.reference_kernel] interleaved
   with its work — between sessions, around set-up repetitions, and as
   probe requests on the serving core — and reports its times and rates
   at a nominal machine speed: a time is scaled by
   [ref_nominal_ms / mean kernel time over the same stretch], a rate by
   the inverse. The kernel's nominal time is about its time on the 2-core
   machine the benchmark was sized on. The mean kernel time of the
   measured phase is in the report ([ref_ms]), so raw figures can be
   recovered: raw = normalized * ref_ms / ref_nominal_ms. *)
let ref_nominal_ms = 1.0

let ref_probe samples = Kit.add samples (snd (Kit.time_ms Kit.reference_kernel))

let at_nominal_time ref_ms x = x *. ref_nominal_ms /. Kit.mean ref_ms
let at_nominal_rate ref_ms x = x *. Kit.mean ref_ms /. ref_nominal_ms

(* --- set-up ------------------------------------------------------------ *)

type system = { database : Database.t; eutils : Eutils.t; engine : Engine.t }

(* The system's set-up, as a user of it pays it (building the database
   and search index from the corpus, creating the engine, warming its
   caches, and whatever else the workload's [build] does), run
   [setup_reps] times. Each repetition is bracketed by kernel probes and
   timed at nominal speed; each discarded instance is disposed of and
   dropped before the next is built, so the repetitions do not stack up
   in memory. Returns the last instance, the median time (s, nominal) —
   so one slow repetition does not move [setup_s] — and the raw times. *)
let setup_reps = 3

let timed_setup ~dispose build =
  let once () =
    Gc.full_major ();
    let ref_ms = Kit.samples () in
    for _ = 1 to 8 do
      ref_probe ref_ms
    done;
    let sys, ms = Kit.time_ms build in
    for _ = 1 to 8 do
      ref_probe ref_ms
    done;
    (sys, ms /. 1000., at_nominal_time ref_ms (ms /. 1000.))
  in
  let discarded =
    List.init (setup_reps - 1) (fun _ ->
        let sys, raw, norm = once () in
        dispose sys;
        (raw, norm))
  in
  let sys, raw, norm = once () in
  Gc.full_major ();
  let times = discarded @ [ (raw, norm) ] in
  let _, median, _ = Kit.quartiles (List.map snd times) in
  (sys, median, List.map fst times)

let warm_by_search engine =
  List.iter
    (fun kw ->
      match Engine.search engine kw with
      | Ok (Engine.Session s) -> ignore (Engine.close engine (Engine.session_id s) : bool)
      | Ok Engine.No_results -> failwith ("no results for " ^ kw)
      | Error e -> failwith e)
    keywords

(* The base navigation tree of every query, in Table I order, read
   through the warmed engine (cache hits). *)
let base_navs engine =
  Array.of_list
    (List.map
       (fun kw ->
         match Engine.search engine kw with
         | Ok (Engine.Session s) ->
             let nav = Engine.session_nav s in
             ignore (Engine.close engine (Engine.session_id s) : bool);
             nav
         | Ok Engine.No_results | Error _ -> failwith ("no tree for " ^ kw))
       keywords)

(* --- detached replay ----------------------------------------------------- *)

(* EXPAND on a detached session ([Engine.start]: no store, no caches)
   with cuts memoized across sessions per (query, expansion path): a
   state seen before is re-applied with [Active_tree.apply_cut] instead
   of re-solved. Returns the revealed nodes, ascending. *)
let memo_expand memo ~q nav path root =
  let key = (q, root :: path) in
  match Hashtbl.find_opt memo key with
  | Some cut -> Active_tree.apply_cut (Navigation.active nav) ~root ~cut_children:cut
  | None ->
      let r = List.sort Int.compare (Navigation.expand nav root) in
      Hashtbl.replace memo key r;
      r

(* --- program counters -------------------------------------------------- *)

(* Exact counts and histogram [_count]/[_sum] pairs read as deltas across
   a phase. Bucket percentiles are never used. *)
let counter_names =
  [ "bionav_cache_hits_total"; "bionav_cache_misses_total"; "bionav_cache_evictions_total";
    "bionav_esearch_total"; "bionav_expands_total"; "bionav_prefetch_plan_hits_total";
    "bionav_prefetch_plan_misses_total"; "bionav_prefetch_speculations_total";
    "bionav_segstore_block_cache_hits_total"; "bionav_segstore_block_cache_misses_total";
    "bionav_segstore_blocks_decoded_total"; "bionav_shard_lock_acquisitions_total";
    "bionav_sessions_evicted_total"; "bionav_serve_requests_total";
    "bionav_serve_keepalive_reuses_total" ]

let histogram_names =
  [ "bionav_expand_latency_ms"; "bionav_heuristic_cut_ms"; "bionav_nav_tree_build_ms";
    "bionav_esearch_ms"; "bionav_space_derivation_ms_descriptor";
    "bionav_space_derivation_ms_qualifier"; "bionav_segstore_block_decode_ms";
    "bionav_prefetch_precompute_latency_ms"; "bionav_shard_lock_wait_ms";
    "bionav_shard_lock_hold_ms"; "bionav_serve_queue_wait_ms" ]

type counters = (string, float) Hashtbl.t

let read_counters () : counters =
  let t = Hashtbl.create 64 in
  List.iter
    (fun n -> Hashtbl.replace t n (float_of_int (Metrics.value (Metrics.counter n))))
    counter_names;
  List.iter
    (fun n ->
      let h = Metrics.histogram n in
      Hashtbl.replace t (n ^ "_count") (float_of_int (Metrics.count h));
      Hashtbl.replace t (n ^ "_sum") (Metrics.sum h))
    histogram_names;
  t

let delta (a : counters) (b : counters) name =
  Hashtbl.find b name -. Hashtbl.find a name

let ratio num den = if den = 0. then 0. else num /. den

(* Counter deltas across one traced engine call, turned into attributed
   child spans of the call's span [op]. The nesting follows where the
   program takes each timing: the solver runs inside a navigation EXPAND
   (and inside speculative precompute), tree builds contain the ESearch
   call, and block decodes happen inside a tree build or a space
   derivation. *)
let attribute_op tr op (a : counters) (b : counters) =
  let d = delta a b in
  let nav_ms = d "bionav_expand_latency_ms_sum" in
  let spec_ms = d "bionav_prefetch_precompute_latency_ms_sum" in
  let solver_ms = d "bionav_heuristic_cut_ms_sum" in
  let build_ms = d "bionav_nav_tree_build_ms_sum" in
  let derive_ms =
    d "bionav_space_derivation_ms_descriptor_sum" +. d "bionav_space_derivation_ms_qualifier_sum"
  in
  let esearch_ms = d "bionav_esearch_ms_sum" in
  let decode_ms = d "bionav_segstore_block_decode_ms_sum" in
  let wait_ms = d "bionav_shard_lock_wait_ms_sum" in
  ignore (Trace.attribute tr ~parent:op ~layer:"engine.lock_wait" "lock_wait" wait_ms : int);
  (* Speculative precompute runs the solver too; what is left of the
     solver time after it is charged to the navigation EXPAND. *)
  let solver_in_nav = Float.min nav_ms (Float.max 0. (solver_ms -. spec_ms)) in
  let nav = Trace.attribute tr ~parent:op ~layer:"navigation" "expand" nav_ms in
  if nav >= 0 then
    ignore (Trace.attribute tr ~parent:nav ~layer:"solver" "heuristic" solver_in_nav : int);
  let spec = Trace.attribute tr ~parent:op ~layer:"prefetch" "precompute" spec_ms in
  if spec >= 0 then
    ignore
      (Trace.attribute tr ~parent:spec ~layer:"solver" "heuristic"
         (Float.min spec_ms (solver_ms -. solver_in_nav))
        : int);
  let build = Trace.attribute tr ~parent:op ~layer:"tree_build" "nav_tree_build" build_ms in
  let derive = Trace.attribute tr ~parent:op ~layer:"derive" "space_derivation" derive_ms in
  if build >= 0 then
    ignore (Trace.attribute tr ~parent:build ~layer:"search" "esearch" esearch_ms : int);
  let decode_parent = if build >= 0 then build else if derive >= 0 then derive else op in
  ignore (Trace.attribute tr ~parent:decode_parent ~layer:"segstore" "block_decode" decode_ms : int)

(* One engine call, timed into [op_ms]. When tracing it is also an
   "engine" span under [parent] with counter-attributed children (the
   counter reads are spans of their own, so they can be told apart from
   the call). Returns the result, the call's time and the navigation
   EXPAND time inside it. *)
let engine_call ~trace tr op_ms ~group ~parent name f =
  if not trace then begin
    let r, ms = Kit.time_ms f in
    Kit.add op_ms ms;
    (r, ms, 0.)
  end
  else begin
    let counters () =
      Trace.timed tr ~group ~parent ~layer:"bench.trace" "counters" (fun _ -> read_counters ())
    in
    let c0 = counters () in
    let id = Trace.enter tr ~group ~parent ~layer:"engine" name in
    let r = f () in
    Trace.leave tr id;
    let c1 = counters () in
    attribute_op tr id c0 c1;
    let ms = Trace.duration tr id in
    Kit.add op_ms ms;
    (r, ms, delta c0 c1 "bionav_expand_latency_ms_sum")
  end

(* --- provenance -------------------------------------------------------- *)

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* The commit of a git working tree, read from [.git] without running
   git; "none" in an exported checkout. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ c; name ] when name = r -> c
                  | _ -> acc)
                "unknown" (String.split_on_char '\n' packed)))
  | Some c -> c

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> -1
  | ic ->
      let n = try int_of_string (String.trim (input_line ic)) with _ -> -1 in
      ignore (Unix.close_process_in ic : Unix.process_status);
      n

let digest_strings l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* --- results ----------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float; n : int; p : float option }

let metric ?p ~n name unit value = { name; unit; value; n; p }

(* A latency percentile reported under a fixed name; [p] records the
   percentile actually used when the sample count forced a lower one. *)
let pct_metric name samples p =
  let r = Kit.percentile (Kit.to_sorted samples) p in
  { name; unit = "ms"; value = r.Kit.value; n = r.Kit.n; p = Some r.Kit.p }

(* A latency percentile of the measured phase, at nominal speed. *)
let nominal_pct ref_ms name samples p =
  let m = pct_metric name samples p in
  { m with value = at_nominal_time ref_ms m.value }

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (* first few correctness failures, for the log *)
  metrics : metric list;
  extra : (string * Kit.json) list;  (* workload-specific provenance *)
}

(* Correctness bookkeeping shared by the workloads. *)
type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let tally () = { attempted = 0; failed = 0; problems = [] }

let fail_op tl msg =
  tl.failed <- tl.failed + 1;
  if List.length tl.problems < 8 then tl.problems <- msg :: tl.problems

(* Run one program operation, counting it; an exception counts as a
   failed operation and yields [None]. *)
let attempt tl what f =
  tl.attempted <- tl.attempted + 1;
  match f () with
  | r -> Some r
  | exception e ->
      fail_op tl (what ^ ": " ^ Printexc.to_string e);
      None

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () = float_of_int (Procinfo.peak_rss_bytes ()) /. 1048576.
