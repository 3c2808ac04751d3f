(* The repository benchmark.

     perfbench/run.sh --workload drill|serve|refine --seed N --seconds S --trace 0|1
     perfbench/run.sh compare OLD NEW

   A run prints a human-readable table, one "perfbench-report {...}" line
   (every metric with its unit, sample count and percentile, the
   provenance stamp and the correctness tally), and, as its last line,
   the result object: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1. METRICS.md documents the workloads
   and metrics. *)

open Common

(* The end-to-end metrics every workload reports (BENCHMARK.json's
   [end_to_end]); further, workload-specific ones appear in the report
   line only. *)
let end_to_end =
  [ "setup_s"; "peak_rss_mb"; "sessions_per_s"; "expand_mean_ms"; "search_p50_ms"; "op_mean_ms" ]

let workloads = [ ("drill", Drill.run); ("serve", Serve.run); ("refine", Refine.run) ]

(* BENCHMARK.json, when present, must list exactly the metrics this
   program reports, so that the file and the code cannot drift apart. *)
let check_declared () =
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> ()
  | text ->
      let declared key =
        match Kit.member key (Kit.parse text) with
        | Kit.Arr l ->
            List.filter_map
              (fun m -> match Kit.member "name" m with Kit.Str n -> Some n | _ -> None)
              l
        | _ -> []
      in
      if
        declared "end_to_end" <> end_to_end
        || declared "per_layer" <> List.map (fun (n, _, _) -> n) Layers.names
      then begin
        prerr_endline "perfbench: BENCHMARK.json does not list the metrics this program reports";
        exit 3
      end

let usage () =
  prerr_endline
    "usage: run.sh --workload drill|serve|refine --seed N --seconds S --trace 0|1\n\
    \       run.sh compare OLD NEW   (files or directories of saved run output)";
  exit 2

let metric_json (m : metric) =
  Kit.Obj
    ([ ("value", Kit.Num m.value); ("unit", Kit.Str m.unit); ("n", Kit.Num (float_of_int m.n)) ]
    @ match m.p with Some p -> [ ("p", Kit.Num p) ] | None -> [])

let run_workload ~name ~seed ~seconds ~trace =
  check_declared ();
  let run = List.assoc name workloads in
  let outcome, tr = run ~seed ~seconds ~trace () in
  let trace_problem =
    if not trace then []
    else begin
      mkdir_p work_dir;
      Trace.write_jsonl tr
        (Filename.concat work_dir (Printf.sprintf "trace-%s-%d.jsonl" name seed));
      match Trace.check tr with Ok () -> [] | Error e -> [ "trace: " ^ e ]
    end
  in
  let problems = outcome.problems @ trace_problem in
  let correct = outcome.failed = 0 && trace_problem = [] && outcome.attempted > 0 in
  let wanted = if trace then List.map (fun (n, _, _) -> n) Layers.names else end_to_end in
  let find n = List.find_opt (fun (m : metric) -> m.name = n) outcome.metrics in
  let missing =
    List.filter
      (fun n -> match find n with Some m -> not (Float.is_finite m.value) | None -> true)
      wanted
  in
  if missing <> [] then begin
    prerr_endline ("perfbench: no finite value for " ^ String.concat ", " missing);
    exit 3
  end;
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%b\n" name seed seconds trace;
  List.iter
    (fun (m : metric) ->
      Printf.printf "  %-34s %14.4f %-16s n=%-6d%s\n" m.name m.value m.unit m.n
        (match m.p with Some p -> Printf.sprintf " p%.2f" p | None -> ""))
    outcome.metrics;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) problems;
  let provenance =
    [ ("commit", Kit.Str (git_commit ())); ("nproc", Kit.Num (float_of_int (nproc ())));
      ("recommended_domain_count", Kit.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Kit.Str Sys.ocaml_version); ("seed", Kit.Num (float_of_int seed));
      ("corpus_seed", Kit.Num (float_of_int corpus_seed)) ]
    @ outcome.extra
  in
  let report =
    Kit.Obj
      [ ("workload", Kit.Str name); ("seed", Kit.Num (float_of_int seed));
        ("seconds", Kit.Num (float_of_int seconds)); ("trace", Kit.Bool trace);
        ("correct", Kit.Bool correct); ("attempted", Kit.Num (float_of_int outcome.attempted));
        ("failed", Kit.Num (float_of_int outcome.failed));
        ("problems", Kit.Arr (List.map (fun p -> Kit.Str p) problems));
        ("provenance", Kit.Obj provenance);
        ( "metrics",
          Kit.Obj (List.map (fun (m : metric) -> (m.name, metric_json m)) outcome.metrics) ) ]
  in
  print_endline ("perfbench-report " ^ Kit.to_string report);
  let result =
    Kit.Obj
      [ ("correct", Kit.Bool correct); ("attempted", Kit.Num (float_of_int outcome.attempted));
        ("failed", Kit.Num (float_of_int (max outcome.failed (List.length trace_problem))));
        ( "metrics",
          Kit.Obj
            (List.map
               (fun n ->
                 let m = Option.get (find n) in
                 (n, Kit.Obj [ ("value", Kit.Num m.value); ("unit", Kit.Str m.unit) ]))
               wanted) ) ]
  in
  print_endline (Kit.to_string result)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: a :: b :: [] -> Compare.run a b
  | _ :: args ->
      let rec parse acc = function
        | [] -> acc
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
      let name = get "workload" in
      if not (List.mem_assoc name workloads) then usage ();
      let seconds = int "seconds" in
      if seconds < 1 then usage ();
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      run_workload ~name ~seed:(int "seed") ~seconds ~trace
  | [] -> usage ()
