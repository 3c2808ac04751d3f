(* Compare mode: two result sets side by side.

     run.sh compare OLD NEW

   OLD and NEW are files or directories (searched one level deep) of
   saved run output; every "perfbench-report" line in them counts as one
   run. For each workload and metric the median and quartiles of each
   side are printed with the change of the median. A metric with a bound
   in ./BENCHMARK.json is "WORSE" when NEW's median is worse than OLD's
   by more than the bound, and "unresolved" when either side's spread
   (quartile distance over median) exceeds the bound — unless every NEW
   run beats every OLD run ("better in every run"). Comparing untraced
   runs with traced runs of the same code shows the tracing overhead. *)

let prefix = "perfbench-report "

let reports path =
  let files =
    if Sys.is_directory path then
      Array.to_list (Array.map (Filename.concat path) (Sys.readdir path))
      |> List.filter (fun f -> not (Sys.is_directory f))
      |> List.sort compare
    else [ path ]
  in
  List.concat_map
    (fun f ->
      In_channel.with_open_bin f In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             let n = String.length prefix in
             if String.length line > n && String.sub line 0 n = prefix then
               Some (Kit.parse (String.sub line n (String.length line - n)))
             else None))
    files

(* name -> (bound, better) from BENCHMARK.json's end_to_end list. *)
let bounds () =
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match Kit.member "end_to_end" (Kit.parse text) with
      | Kit.Arr l ->
          List.filter_map
            (fun m ->
              match (Kit.member "name" m, Kit.member "bound" m, Kit.member "better" m) with
              | Kit.Str n, Kit.Num b, Kit.Str better -> Some (n, (b, better))
              | _ -> None)
            l
      | _ -> [])

let values workload metric rs =
  List.filter_map
    (fun r ->
      if Kit.member "workload" r = Kit.Str workload then
        match Kit.member "value" (Kit.member metric (Kit.member "metrics" r)) with
        | Kit.Num v -> Some v
        | _ -> None
      else None)
    rs

let spread (q1, med, q3) = if med = 0. then 0. else (q3 -. q1) /. Float.abs med

let run old_path new_path =
  let a = reports old_path and b = reports new_path in
  if a = [] || b = [] then begin
    prerr_endline "compare: no perfbench-report lines found";
    exit 2
  end;
  let bounds = bounds () in
  let workloads =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> match Kit.member "workload" r with Kit.Str w -> Some w | _ -> None)
         (a @ b))
  in
  List.iter
    (fun w ->
      let names =
        List.concat_map
          (fun r ->
            match (Kit.member "workload" r, Kit.member "metrics" r) with
            | Kit.Str w', Kit.Obj ms when w' = w -> List.map fst ms
            | _ -> [])
          (a @ b)
        |> List.fold_left (fun acc n -> if List.mem n acc then acc else acc @ [ n ]) []
      in
      Printf.printf "%s  (%d old runs, %d new runs)\n" w
        (List.length (values w "setup_s" a)) (List.length (values w "setup_s" b));
      Printf.printf "  %-32s %30s %30s %9s  %s\n" "metric" "old median [q1, q3]"
        "new median [q1, q3]" "change" "verdict";
      List.iter
        (fun n ->
          match (values w n a, values w n b) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let qa = Kit.quartiles va and qb = Kit.quartiles vb in
              let _, ma, _ = qa and _, mb, _ = qb in
              let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
              let verdict =
                match List.assoc_opt n bounds with
                | None -> ""
                | Some (bound, better) ->
                    let lower = better = "lower" in
                    let worse = if lower then change > bound else change < -.bound in
                    let beats x y = if lower then x < y else x > y in
                    let all_better =
                      List.for_all (fun x -> List.for_all (fun y -> beats x y) va) vb
                    in
                    if spread qa > bound || spread qb > bound then
                      if all_better then "better in every run" else "unresolved"
                    else if worse then "WORSE"
                    else "within bound"
              in
              let show (q1, m, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
              Printf.printf "  %-32s %30s %30s %+8.1f%%  %s\n" n (show qa) (show qb)
                (100. *. change) verdict)
        names;
      print_newline ())
    workloads
