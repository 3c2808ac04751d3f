(* serve: the production web tier — [Http.serve]'s poll loop with
   [App.handle], prefetch on (plan cache + speculator), one handler
   domain — under open-loop load from a forked generator process over
   two keep-alive connections. Users replay seeded scripts: /search
   (Zipf over the Table I queries), 3-6 /expand, /show, /back and a
   /session re-render. Root cuts are mostly plan-cache hits, so time goes
   to parsing, admission, rendering, locks, snapshot publication and
   the speculation drain.

   A run has four phases, each its own [Http.serve] call whose request
   count the generator announces first: a cold closed-loop pass over the
   script set on one connection (it leaves every scripted path in the
   plan cache), [warm_passes] warm passes (one client's pace),
   the open-loop phase at a fixed offered rate, and a rate ladder for
   [http_max_rps]. Every request is timed from its intended send time;
   every eighth one is a speed probe (see [probe_every]). *)

open Bionav_util
open Bionav_core
open Common
module Http = Bionav_web.Http
module App = Bionav_web.App
module Html = Bionav_web.Html

(* A small script set replayed many times: returning users on popular
   paths, which is what makes root and follow-up cuts plan-cache hits. *)
let n_scripts = 24
let connections = 2

(* The measured phase's offered load, probes included: about half the
   rate one closed-loop connection gets through a first pass over fresh
   scripts on a 2-core machine (~120 req/s). It is a constant, not
   re-derived from each run's own passes, so that every run, and every
   commit, is measured under the same load. *)
let offered_rps = 60.

(* Closed-loop passes over the warm server; about 3.5 s at 2 cores. *)
let warm_passes = 4
let latency_limit_ms = 250.
let ladder = [ 25.; 50.; 75.; 100.; 125.; 150.; 200.; 250.; 300.; 400.; 500. ]
let ladder_step_s = 0.5

(* Generator lateness (time between a request's slot and its send, for
   requests not held back waiting on their session id) above this makes
   the run invalid: the generator, not the server, set the pace. *)
let max_generator_late_ms = 20.

type step =
  | Search
  | Expand of int * int list  (* node, visible nodes afterwards (sorted) *)
  | Show of int
  | Back of int list
  | Session of int list

type script = { q : int; root : int; steps : step list; cost : int }

let kind = function
  | Search -> "search"
  | Expand _ -> "expand"
  | Show _ -> "show"
  | Back _ -> "back"
  | Session _ -> "session"

(* Scripts are generated by an engine-direct replay on detached sessions:
   the expected visible set after every step is what the server must
   render; cuts are memoized as in drill (see [memo_expand]).
   A query's scripts cycle through 3-6 EXPANDs, so every seed has the
   same mix of script lengths. *)
let gen_scripts rng navs =
  let schedule = Schedule.zipf_schedule rng ~n:n_scripts ~k:(Array.length navs) in
  let memo = Hashtbl.create 256 in
  let strategy = Navigation.bionav () in
  Array.map
    (fun (q, j) ->
      let nav = Engine.start strategy navs.(q) in
      let act = Navigation.active nav in
      let visible () = List.sort Int.compare (Active_tree.visible act) in
      let m = 3 + (j mod 4) in
      let rec go i path last steps cost =
        let candidates l = List.filter (Active_tree.is_expandable act) l in
        let pool =
          match candidates last with [] -> candidates (Active_tree.visible act) | l -> l
        in
        if i = m || pool = [] then (path, last, steps, cost)
        else
          let node = List.nth pool (Rng.int rng (List.length pool)) in
          let revealed = memo_expand memo ~q nav path node in
          go (i + 1) (node :: path) revealed
            (Expand (node, visible ()) :: steps)
            (cost + 1 + List.length revealed)
      in
      let root = Nav_tree.root navs.(q) in
      let _, last, steps, cost = go 0 [] [ root ] [ Search ] 0 in
      let shown = List.nth last (Rng.int rng (List.length last)) in
      ignore (Active_tree.backtrack act : bool);
      let after_back = visible () in
      let steps = List.rev (Session after_back :: Back after_back :: Show shown :: steps) in
      { q; root; steps; cost })
    schedule

let script_digest scripts =
  digest_strings
    (Array.to_list
       (Array.map
          (fun s ->
            String.concat " "
              (string_of_int s.q
              :: List.map
                   (function
                     | Search -> "search"
                     | Expand (n, _) -> "expand:" ^ string_of_int n
                     | Show n -> "show:" ^ string_of_int n
                     | Back _ -> "back"
                     | Session _ -> "session")
                   s.steps))
          scripts))

(* --- the generator (runs in the forked child) ---------------------------- *)

type record = {
  rid : int;
  phase : string;
  rkind : string;
  intended : float;
  sent : float;
  finished : float;
  status : int;
  ok : bool;  (* status 200 and the rendered page matched the replay *)
  held : bool;  (* sent late because its session id was not known yet *)
}

type gen_result = {
  records : record array;
  capacity_rps : float;  (* user requests/s of the warm closed-loop pass *)
  warm_sessions_per_s : float;  (* scripts/s of the warm closed-loop pass *)
  warm_scripts : int;
  ladder_steps : Kit.step list;
  max_rps : float option;
  gen_problems : string list;
}

let find_from hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec matches i k = k = nn || (hay.[i + k] = needle.[k] && matches i (k + 1)) in
  let rec go i = if i + nn > nh then None else if matches i 0 then Some i else go (i + 1) in
  go from

let digits_at s i =
  let j = ref i in
  while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
    incr j
  done;
  if !j = i then None else Some (int_of_string (String.sub s i (!j - i)))

(* The visible nodes of a rendered tree: every visible node carries a
   SHOWRESULTS link. *)
let visible_of_page body =
  let rec go from acc =
    match find_from body "/show?" from with
    | None -> List.sort_uniq Int.compare acc
    | Some i -> (
        match find_from body "node=" i with
        | None -> List.sort_uniq Int.compare acc
        | Some j -> (
            match digits_at body (j + 5) with
            | Some n -> go (j + 5) (n :: acc)
            | None -> go (j + 5) acc))
  in
  go 0 []

let sid_of_page body =
  match find_from body "sid=" 0 with
  | None -> None
  | Some i ->
      let j = ref (i + 4) in
      let sid_char c = c = 's' || (c >= '0' && c <= '9') in
      while !j < String.length body && sid_char body.[!j] do
        incr j
      done;
      Some (String.sub body (i + 4) (!j - i - 4))

(* A keep-alive connection: unparsed response bytes, and the completion
   callbacks of its outstanding requests in send order. *)
type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  queue : (float -> int -> string -> unit) Queue.t;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; buf = Buffer.create 65536; queue = Queue.create () }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Parse every complete response at the head of the buffer, completing
   the oldest outstanding request of the connection for each. *)
let drain_responses c now =
  let chunk = Bytes.create 65536 in
  let n = Unix.read c.fd chunk 0 65536 in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let rec parse () =
    let all = Buffer.contents c.buf in
    match find_from all "\r\n\r\n" 0 with
    | None -> ()
    | Some hdr_end ->
        let head = String.lowercase_ascii (String.sub all 0 hdr_end) in
        let status = Scanf.sscanf head "http/1.1 %d" Fun.id in
        let clen =
          match find_from head "content-length:" 0 with
          | None -> 0
          | Some i ->
              let rest = String.trim (String.sub head (i + 15) (String.length head - i - 15)) in
              Option.value ~default:0 (digits_at rest 0)
        in
        let total = hdr_end + 4 + clen in
        if String.length all >= total then begin
          let body = String.sub all (hdr_end + 4) clen in
          Buffer.clear c.buf;
          Buffer.add_string c.buf (String.sub all total (String.length all - total));
          (Queue.pop c.queue) now status body;
          parse ()
        end
  in
  parse ()

(* One user working through scripts on one connection. *)
type instance = {
  script : script;
  mutable next : int;
  mutable sid : string option;
  held_back : (unit -> unit) Queue.t;
}

type gen = {
  scripts : script array;
  mutable next_script : int;
  mutable next_rid : int;
  mutable records : record list;
  mutable problems : string list;
}

let problem g msg = if List.length g.problems < 8 then g.problems <- msg :: g.problems

let new_instance g =
  let s = g.scripts.(g.next_script mod Array.length g.scripts) in
  g.next_script <- g.next_script + 1;
  { script = s; next = 0; sid = None; held_back = Queue.create () }

(* Every [probe_every]-th request of a phase is a speed probe, "/ref",
   on which the server's handler runs the reference kernel (see
   [Common.ref_probe]). [with_probes n] is the request count of a phase
   with [n] user requests. *)
let probe_every = 8

let with_probes n = n + (n / (probe_every - 1))

(* Run [count] requests (probes included). [rate = None] is a closed
   loop on one lane; [Some r] sends on a fixed schedule of r requests/s
   spread over lanes of ~100 ms think time. Returns the phase's user
   records in send order, the completed-script count and the elapsed
   time without the probes' round trips. *)
let run_phase g ~port ~phase ~count ~rate =
  let conns =
    Array.init (match rate with None -> 1 | Some _ -> connections) (fun _ -> connect port)
  in
  let lanes_n =
    match rate with None -> 1 | Some r -> max 2 (int_of_float (Float.ceil (r *. 0.1)))
  in
  let lanes = Array.init lanes_n (fun _ -> new_instance g) in
  let completed = ref 0 and scripts_done = ref 0 in
  let phase_records = ref [] in
  let t0 = Kit.now_ms () in
  let slot_ms = match rate with None -> 0. | Some r -> 1000. /. r in
  let send_step lane_i inst step ~intended ~held =
    let c = conns.(lane_i mod Array.length conns) in
    let rid = g.next_rid in
    g.next_rid <- rid + 1;
    let sid = Option.value inst.sid ~default:"" in
    let target =
      let r = ("rid", string_of_int rid) in
      match step with
      | Search -> Html.url "/search" [ ("q", List.nth keywords inst.script.q); r ]
      | Expand (n, _) -> Html.url "/expand" [ ("sid", sid); ("node", string_of_int n); r ]
      | Show n -> Html.url "/show" [ ("sid", sid); ("node", string_of_int n); r ]
      | Back _ -> Html.url "/back" [ ("sid", sid); r ]
      | Session _ -> Html.url "/session" [ ("sid", sid); r ]
    in
    let sent = Kit.now_ms () in
    write_all c.fd ("GET " ^ target ^ " HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    Queue.push
      (fun finished status body ->
        incr completed;
        let expect = function
          | Some want ->
              let got = visible_of_page body in
              if got <> want then
                problem g (Printf.sprintf "%s: rendered nodes differ from the replay" target);
              got = want
          | None -> true
        in
        let ok =
          status = 200
          &&
          match step with
          | Search -> (
              match sid_of_page body with
              | Some sid ->
                  inst.sid <- Some sid;
                  Queue.iter (fun f -> f ()) inst.held_back;
                  Queue.clear inst.held_back;
                  expect (Some [ inst.script.root ])
              | None ->
                  problem g "search: no session id in the page";
                  false)
          | Expand (_, v) | Back v | Session v -> expect (Some v)
          | Show _ -> true
        in
        if status <> 200 then problem g (Printf.sprintf "%s -> %d" target status);
        (match step with Session _ -> incr scripts_done | _ -> ());
        phase_records :=
          { rid; phase; rkind = kind step; intended; sent; finished; status; ok; held }
          :: !phase_records)
      c.queue
  in
  (* Hand the lane's next step to the wire, or hold it until the lane's
     session id is known. *)
  let dispatch lane_i ~intended =
    let inst = lanes.(lane_i) in
    let inst =
      if inst.next >= List.length inst.script.steps then begin
        let fresh = new_instance g in
        lanes.(lane_i) <- fresh;
        fresh
      end
      else inst
    in
    let step = List.nth inst.script.steps inst.next in
    inst.next <- inst.next + 1;
    match step with
    | Search -> send_step lane_i inst step ~intended ~held:false
    | _ when inst.sid <> None -> send_step lane_i inst step ~intended ~held:false
    | _ -> Queue.push (fun () -> send_step lane_i inst step ~intended ~held:true) inst.held_back
  in
  let probe_ms = ref 0. in
  let send_probe ~intended =
    let c = conns.(0) in
    let rid = g.next_rid in
    g.next_rid <- rid + 1;
    let sent = Kit.now_ms () in
    write_all c.fd ("GET /ref?rid=" ^ string_of_int rid ^ " HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    Queue.push
      (fun finished status _ ->
        incr completed;
        probe_ms := !probe_ms +. (finished -. sent);
        if status <> 200 then problem g (Printf.sprintf "/ref -> %d" status);
        g.records <-
          { rid; phase; rkind = "ref"; intended; sent; finished; status; ok = status = 200;
            held = false }
          :: g.records)
      c.queue
  in
  let next ~intended i =
    if i mod probe_every = probe_every - 1 then send_probe ~intended
    else dispatch (i mod lanes_n) ~intended
  in
  let dispatched = ref 0 in
  while !completed < count do
    let now = Kit.now_ms () in
    (match rate with
    | None ->
        if !dispatched = !completed && !dispatched < count then begin
          next ~intended:now !dispatched;
          incr dispatched
        end
    | Some _ ->
        while !dispatched < count && t0 +. (float_of_int !dispatched *. slot_ms) <= now do
          let intended = t0 +. (float_of_int !dispatched *. slot_ms) in
          next ~intended !dispatched;
          incr dispatched
        done);
    let timeout =
      match rate with
      | Some _ when !dispatched < count ->
          Float.max 0. ((t0 +. (float_of_int !dispatched *. slot_ms) -. Kit.now_ms ()) /. 1000.)
      | _ -> 0.05
    in
    let busy =
      List.filter_map
        (fun c -> if Queue.is_empty c.queue then None else Some c.fd)
        (Array.to_list conns)
    in
    match Unix.select busy [] [] (if busy = [] then Float.min timeout 0.001 else timeout) with
    | ready, _, _ ->
        let now = Kit.now_ms () in
        Array.iter (fun c -> if List.mem c.fd ready then drain_responses c now) conns
  done;
  Array.iter (fun c -> Unix.close c.fd) conns;
  let elapsed_s = (Kit.now_ms () -. t0 -. !probe_ms) /. 1000. in
  g.records <- List.rev_append !phase_records g.records;
  ( List.sort (fun a b -> Float.compare a.intended b.intended) !phase_records,
    !scripts_done,
    elapsed_s )

(* The generator's side of a run. [ask count] has the server start a
   phase of [count] requests and returns its port. *)
let generate ~scripts ~seconds ~ask =
  let g = { scripts; next_script = 0; next_rid = 0; records = []; problems = [] } in
  let t_start = Kit.now_ms () in
  let phase ~name ~requests ~rate =
    let count = with_probes requests in
    run_phase g ~port:(ask count) ~phase:name ~count ~rate
  in
  (* Closed-loop passes over the script set: the first leaves every
     scripted path in the plan cache, the next [warm_passes] measure one
     client's pace against the warm server. *)
  let pass = Array.fold_left (fun acc s -> acc + List.length s.steps) 0 scripts in
  ignore (phase ~name:"cold" ~requests:pass ~rate:None : record list * int * float);
  let _, warm_scripts, warm_s = phase ~name:"warm" ~requests:(warm_passes * pass) ~rate:None in
  let fixed_requests = int_of_float (offered_rps *. 0.35 *. float_of_int seconds) in
  ignore
    (phase ~name:"fixed" ~requests:fixed_requests ~rate:(Some offered_rps)
      : record list * int * float);
  (* The ladder gets whatever time is left; a step that would overrun
     it ends the search without a verdict. *)
  let deadline = t_start +. (1000. *. float_of_int seconds) in
  let exception Out_of_time in
  let passed = ref None and ran = ref [] in
  let probe rate =
    if Kit.now_ms () +. (1000. *. ladder_step_s) > deadline then raise Out_of_time;
    let count = max 1 (int_of_float (rate *. ladder_step_s)) in
    let recs, _, _ =
      phase ~name:(Printf.sprintf "ladder-%g" rate) ~requests:count ~rate:(Some rate)
    in
    let lat = Array.of_list (List.map (fun r -> r.finished -. r.intended) recs) in
    let over = Array.fold_left (fun acc l -> if l > latency_limit_ms then acc + 1 else acc) 0 lat in
    let ok =
      List.for_all (fun r -> r.status = 200) recs
      && float_of_int over <= 0.01 *. float_of_int count
      && not (Kit.backlog_grew ~limit_ms:latency_limit_ms lat)
    in
    ran := { Kit.rate; passed = ok } :: !ran;
    if ok then passed := Some rate;
    ok
  in
  let max_rps, steps =
    match Kit.ladder_max ladder probe with
    | r -> r
    | exception Out_of_time -> (!passed, List.rev !ran)
  in
  {
    records = Array.of_list (List.rev g.records);
    capacity_rps = float_of_int (warm_passes * pass) /. warm_s;
    warm_sessions_per_s = float_of_int warm_scripts /. warm_s; warm_scripts;
    ladder_steps = steps; max_rps; gen_problems = List.rev g.problems;
  }

(* --- the server side (this process) ------------------------------------ *)

type handled = { h_start : float; h_end : float; counters : (counters * counters) option }

(* The generator's phases in order: cold pass, warm passes, the measured
   phase, then ladder steps. *)
let measured_phase = 2

(* Fork the generator, then serve each phase it announces with a fresh
   [Http.serve] until it reports. Program counters are read around the
   measured phase. The fork happens while this process runs a single
   domain. *)
let serve_phases ~scripts ~seconds handler =
  let to_child_r, to_child_w = Unix.pipe ~cloexec:true () in
  let from_child_r, from_child_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close to_child_w;
      Unix.close from_child_r;
      let ic = Unix.in_channel_of_descr to_child_r in
      let oc = Unix.out_channel_of_descr from_child_w in
      let ask count =
        Printf.fprintf oc "serve %d\n%!" count;
        int_of_string (input_line ic)
      in
      let code =
        match generate ~scripts ~seconds ~ask with
        | r ->
            Printf.fprintf oc "done\n%!";
            Marshal.to_channel oc r [];
            flush oc;
            0
        | exception e ->
            Printf.fprintf oc "failed %s\n%!" (String.escaped (Printexc.to_string e));
            1
      in
      Unix._exit code
  | pid ->
      Unix.close to_child_r;
      Unix.close from_child_w;
      let ic = Unix.in_channel_of_descr from_child_r in
      let oc = Unix.out_channel_of_descr to_child_w in
      let config = { Http.default_server_config with Http.domains = 1 } in
      let measured = ref None in
      let rec loop phase =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "serve " ->
            let count = int_of_string (String.sub line 6 (String.length line - 6)) in
            let c0 = read_counters () in
            Http.serve ~config ~max_requests:count
              ~on_ready:(fun ~port -> Printf.fprintf oc "%d\n%!" port)
              ~port:0 handler;
            if phase = measured_phase then measured := Some (c0, read_counters ());
            loop (phase + 1)
        | "done" -> Ok (Marshal.from_channel ic : gen_result)
        | line -> Error line
        | exception End_of_file -> Error "generator exited"
      in
      let outcome = loop 0 in
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      close_in ic;
      close_out oc;
      match (outcome, !measured) with
      | Ok r, Some counters -> (r, counters)
      | Ok _, None -> failwith "serve: the generator skipped the measured phase"
      | Error e, _ -> failwith ("serve generator: " ^ e)

let run ~seed ~seconds ~trace () =
  let medline = load_corpus () in
  let (app, sys), setup_s, setup_times =
    timed_setup ~dispose:ignore (fun () ->
        let database = Database.of_medline medline in
        let eutils = Eutils.create medline in
        let config =
          { Engine.default_config with
            Engine.prefetch = Some Bionav_prefetch.Prefetch.default_config }
        in
        let app = App.create ~config ~database ~eutils () in
        ignore (Engine.warm (App.engine app) keywords : Bionav_store.Snapshot.entry list);
        (app, { database; eutils; engine = App.engine app }))
  in
  let engine = sys.engine in
  let scripts = gen_scripts (Rng.create seed) (base_navs engine) in
  let handled : (int, handled) Hashtbl.t = Hashtbl.create 4096 in
  let ref_times : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let rid_of query = Option.bind (List.assoc_opt "rid" query) int_of_string_opt in
  (* The handler passed to [Http.serve]: [App.handle], timed, keyed by the
     request id the generator adds to every URL — except the generator's
     speed probes, which time the reference kernel on the serving core. *)
  let handler ~path ~query =
    if path = "/ref" then begin
      let _, ms = Kit.time_ms Kit.reference_kernel in
      Option.iter (fun rid -> Hashtbl.replace ref_times rid ms) (rid_of query);
      Http.ok ~content_type:"text/plain" "ref"
    end
    else begin
      let c0 = if trace then Some (read_counters ()) else None in
      let h_start = Kit.now_ms () in
      let resp = App.handle app ~path ~query in
      let h_end = Kit.now_ms () in
      let counters = Option.map (fun c0 -> (c0, read_counters ())) c0 in
      Option.iter
        (fun rid -> Hashtbl.replace handled rid { h_start; h_end; counters })
        (rid_of query);
      resp
    end
  in
  let r, (c0, c1) = serve_phases ~scripts ~seconds handler in
  let fixed = List.filter (fun x -> x.phase = "fixed" && x.rkind <> "ref") (Array.to_list r.records) in
  let ref_ms phase =
    let s = Kit.samples () in
    Array.iter
      (fun x ->
        if x.phase = phase && x.rkind = "ref" then
          Option.iter (Kit.add s) (Hashtbl.find_opt ref_times x.rid))
      r.records;
    s
  in
  let ref_warm = ref_ms "warm" and ref_fixed = ref_ms "fixed" in
  (* Latencies from intended send, at nominal speed, of one phase's user
     requests of one kind ("" for all). *)
  let latencies phase ref_ms kind =
    let s = Kit.samples () in
    Array.iter
      (fun x ->
        if x.phase = phase && x.rkind <> "ref" && (kind = "" || x.rkind = kind) then
          Kit.add s (at_nominal_time ref_ms (x.finished -. x.intended)))
      r.records;
    s
  in
  let late = Kit.samples () in
  Array.iter (fun x -> if not x.held then Kit.add late (x.sent -. x.intended)) r.records;
  let late_p99 = Kit.percentile (Kit.to_sorted late) 99. in
  let failed = Array.fold_left (fun acc x -> if x.ok then acc else acc + 1) 0 r.records in
  let problems =
    r.gen_problems
    @
    if late_p99.Kit.value > max_generator_late_ms then
      [ Printf.sprintf "generator ran late: p%.1f send lateness %.1f ms" late_p99.Kit.p
          late_p99.Kit.value ]
    else []
  in
  (* The gated latencies come from the warm closed-loop passes, where a
     request's time is the server's time: under the open-loop phase they
     also carry queueing, which turns the machine's speed swings into
     swings of 20% and more between runs. The open-loop phase gives the
     http_* figures. *)
  let warm = latencies "warm" ref_warm in
  let all = warm "" and expand = warm "expand" and search = warm "search" in
  let http = latencies "fixed" ref_fixed "" in
  let warm_requests = warm_passes * Array.fold_left (fun acc s -> acc + List.length s.steps) 0 scripts in
  let nav_cost_mean =
    float_of_int (Array.fold_left (fun acc s -> acc + s.cost) 0 scripts) /. float_of_int n_scripts
  in
  let metrics =
    [ metric ~n:setup_reps "setup_s" "s" setup_s; metric ~n:1 "peak_rss_mb" "MiB" (peak_rss_mb ());
      metric ~n:r.warm_scripts "sessions_per_s" "sessions/s"
        (at_nominal_rate ref_warm r.warm_sessions_per_s);
      metric ~n:(Kit.count expand) "expand_mean_ms" "ms" (Kit.mean expand);
      pct_metric "expand_p50_ms" expand 50.; pct_metric "expand_p99_ms" expand 99.;
      pct_metric "search_p50_ms" search 50.; pct_metric "search_p95_ms" search 95.;
      metric ~n:n_scripts "nav_cost_mean" "concepts" nav_cost_mean;
      metric ~n:(Kit.count all) "op_mean_ms" "ms" (Kit.mean all);
      pct_metric "op_p50_ms" all 50.; pct_metric "op_p99_ms" all 99.;
      metric ~n:(Kit.count http) "http_mean_ms" "ms" (Kit.mean http);
      pct_metric "http_p50_ms" http 50.; pct_metric "http_p99_ms" http 99.;
      metric ~n:(List.length r.ladder_steps) "http_max_rps" "req/s"
        (Option.value r.max_rps ~default:0.);
      metric ~n:warm_requests "capacity_rps" "req/s" (at_nominal_rate ref_warm r.capacity_rps);
      metric ~n:(List.length fixed) "offered_rps" "req/s" offered_rps;
      metric ~n:(Kit.count ref_fixed) "ref_ms" "ms" (Kit.mean ref_fixed) ]
  in
  (* Spans of the measured phase: each request from its intended send to
     its response, with the generator's lateness and the server's handler
     (same monotonic clock) as children. *)
  let tr = Trace.create () in
  let layers =
    if not trace then []
    else begin
      let handler_ms = Kit.samples () and transport_ms = Kit.samples () in
      List.iter
        (fun x ->
          Option.iter
            (fun h ->
              let group = x.rid in
              let root =
                Trace.add_timed tr ~group ~parent:Trace.root ~layer:"bench" x.rkind
                  ~start_ms:x.intended ~end_ms:x.finished
              in
              ignore
                (Trace.add_timed tr ~group ~parent:root ~layer:"loadgen" "late" ~start_ms:x.intended
                   ~end_ms:x.sent
                  : int);
              let hs =
                Trace.add_timed tr ~group ~parent:root ~layer:"web.handler" x.rkind
                  ~start_ms:h.h_start ~end_ms:h.h_end
              in
              Option.iter (fun (a, b) -> attribute_op tr hs a b) h.counters;
              Kit.add handler_ms (h.h_end -. h.h_start);
              Kit.add transport_ms (x.finished -. x.sent -. (h.h_end -. h.h_start)))
            (Hashtbl.find_opt handled x.rid))
        fixed;
      let fixed_failed = List.length (List.filter (fun x -> not x.ok) fixed) in
      Layers.metrics
        { (Layers.empty_input ~c0 ~c1 ~engine ~trace:tr) with
          Layers.ops = List.length fixed; web_requests = List.length fixed;
          web_failed = fixed_failed; handler_ms; transport_ms; late_ms = late }
    end
  in
  let num x = Kit.Num x in
  ( { attempted = Array.length r.records; failed; problems; metrics = metrics @ layers;
      extra =
        [ ("scripts", num (float_of_int n_scripts));
          ("script_digest", Kit.Str (script_digest scripts));
          ("setup_times_s", Kit.Arr (List.map num setup_times));
          ( "generator_late_ms",
            Kit.Obj
              [ ("p", num late_p99.Kit.p); ("value", num late_p99.Kit.value);
                ("n", num (float_of_int late_p99.Kit.n)) ] );
          ( "ladder",
            Kit.Arr
              (List.map
                 (fun (s : Kit.step) ->
                   Kit.Obj [ ("rate", num s.Kit.rate); ("passed", Kit.Bool s.Kit.passed) ])
                 r.ladder_steps) ) ] },
    tr )
