(* The serving tier: keep-alive protocol semantics on the connection
   state machine (simulated clock, no sockets), the incremental parser
   (including the fragmentation property), the admission controller on
   a simulated clock, and the readiness-loop server end to end over TCP. *)

module Http = Bionav_web.Http
module Admission = Bionav_web.Admission
module Metrics = Bionav_util.Metrics
module Clock = Bionav_resilience.Clock

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let count_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if m = 0 then 0 else go 0 0

let hello_handler ~path ~query:_ = Http.ok ("hello " ^ path)

let write_str fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let read_all fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec loop () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
  in
  loop ();
  Buffer.contents buf

(* Read one framed response (headers + Content-Length body) off a
   keep-alive descriptor; bytes past it stay in [pending]. Returns
   (status, raw response bytes). *)
let read_response fd pending =
  let chunk = Bytes.create 4096 in
  let fill () =
    let n = Unix.read fd chunk 0 4096 in
    if n = 0 then failwith "connection closed mid-response";
    Buffer.add_subbytes pending chunk 0 n
  in
  let find sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
    go 0
  in
  let rec header_end () =
    match find "\r\n\r\n" (Buffer.contents pending) with
    | Some i -> i
    | None ->
        fill ();
        header_end ()
  in
  let hdr_end = header_end () in
  let head = String.sub (Buffer.contents pending) 0 hdr_end in
  let status = Scanf.sscanf head "HTTP/1.1 %d" Fun.id in
  let clen =
    match find "content-length:" (String.lowercase_ascii head) with
    | None -> 0
    | Some i ->
        let rest = String.sub head (i + 15) (String.length head - i - 15) in
        Scanf.sscanf (String.trim rest) "%d" Fun.id
  in
  let total = hdr_end + 4 + clen in
  while Buffer.length pending < total do
    fill ()
  done;
  let all = Buffer.contents pending in
  let raw = String.sub all 0 total in
  let leftover = String.sub all total (String.length all - total) in
  Buffer.clear pending;
  Buffer.add_string pending leftover;
  (status, raw)

(* --- protocol tests on the connection state machine ----------------- *)

let fast_config =
  { Http.default_server_config with Http.read_timeout_ms = 2000.; idle_timeout_ms = 2000. }

type input = Send of string | Hangup | Wait of float

(* [Http.serve] in miniature over one [Http.Conn]: runs [handler]
   inline, appends every [Write] to the reply and, if the peer [reads],
   reports it flushed at once. [Wait ms] advances a simulated clock and ticks, so
   timeouts need no sleeps. Returns the reply and whether the machine
   closed the connection. *)
let run_machine ?(config = fast_config) ?(handler = hello_handler) ?(reads = true) inputs =
  let clock = Clock.simulated ~start_ms:0. () in
  let m = Http.Conn.create config ~now_ms:(Clock.now_ms clock) in
  let out = Buffer.create 256 in
  let closed = ref false in
  let rec feed ev =
    if not !closed then List.iter act (Http.Conn.step m ~now_ms:(Clock.now_ms clock) ev)
  and act = function
    | Http.Conn.Write s ->
        Buffer.add_string out s;
        if reads then feed Http.Conn.Flushed
    | Http.Conn.Run req ->
        let path, query = Http.parse_target req.Http.Parser.target in
        feed (Http.Conn.Response (handler ~path ~query))
    | Http.Conn.Close -> closed := true
  in
  List.iter
    (function
      | Send s -> feed (Http.Conn.Data s)
      | Hangup -> feed Http.Conn.Eof
      | Wait ms ->
          Clock.advance clock ms;
          feed Http.Conn.Tick)
    inputs;
  (Buffer.contents out, !closed)

let machine_reply ?config inputs = fst (run_machine ?config inputs)

let status_of raw = Scanf.sscanf raw "HTTP/1.1 %d" Fun.id

(* Two complete requests in a single write: both answered, in order. *)
let test_pipelined_pair () =
  let reply = machine_reply [ Send "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"; Hangup ] in
  Alcotest.(check int) "two responses" 2 (count_sub ~sub:"HTTP/1.1 200 OK" reply);
  Alcotest.(check bool) "first body" true (contains ~sub:"hello /a" reply);
  Alcotest.(check bool) "second body" true (contains ~sub:"hello /b" reply);
  let pos sub =
    let n = String.length reply and m = String.length sub in
    let rec go i = if i + m > n then max_int else if String.sub reply i m = sub then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "in order" true (pos "hello /a" < pos "hello /b")

(* One byte per write across every parser boundary. *)
let test_split_byte_by_byte () =
  let req = "GET /drip HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" in
  let raw = machine_reply (List.init (String.length req) (fun i -> Send (String.make 1 req.[i]))) in
  let status = status_of raw in
  Alcotest.(check int) "200 despite fragmentation" 200 status;
  Alcotest.(check bool) "body" true (contains ~sub:"hello /drip" raw)

(* A silent client is closed after idle_timeout_ms without any bytes. *)
let test_idle_timeout_closes_silently () =
  let idle_closed = Metrics.counter "bionav_serve_idle_closed_total" in
  let before = Metrics.value idle_closed in
  let config = { fast_config with Http.idle_timeout_ms = 60. } in
  let reply = machine_reply ~config [ Wait 61. ] in
  Alcotest.(check string) "no bytes sent" "" reply;
  Alcotest.(check int) "idle close counted" (before + 1) (Metrics.value idle_closed)

(* Connection: close is honored — and a pipelined request after it is
   never answered. *)
let test_connection_close_honored () =
  let reply =
    machine_reply
      [ Send "GET /one HTTP/1.1\r\nConnection: close\r\n\r\nGET /two HTTP/1.1\r\n\r\n"; Hangup ]
  in
  Alcotest.(check int) "exactly one response" 1 (count_sub ~sub:"HTTP/1.1 200 OK" reply);
  Alcotest.(check bool) "close header" true (contains ~sub:"Connection: close" reply);
  Alcotest.(check bool) "second request unanswered" false (contains ~sub:"hello /two" reply)

(* An HTTP/1.0 request defaults to close; keep_alive=false config forces
   close even on HTTP/1.1. *)
let test_close_defaults () =
  let reply = machine_reply [ Send "GET /old HTTP/1.0\r\n\r\n"; Hangup ] in
  Alcotest.(check bool) "1.0 closes" true (contains ~sub:"Connection: close" reply);
  let config = { fast_config with Http.keep_alive = false } in
  let reply = machine_reply ~config [ Send "GET /new HTTP/1.1\r\n\r\n"; Hangup ] in
  Alcotest.(check bool) "keep_alive=false closes" true (contains ~sub:"Connection: close" reply)

(* Oversized header line is still a 400, even while incomplete. *)
let test_oversized_header_line () =
  let oversized = Metrics.counter "bionav_resilience_oversized_requests_total" in
  let before = Metrics.value oversized in
  let config = { fast_config with Http.max_request_line = 64 } in
  let reply =
    machine_reply ~config
      [ Send ("GET /x HTTP/1.1\r\nX-Pad: " ^ String.make 200 'p' ^ "\r\n\r\n"); Hangup ]
  in
  Alcotest.(check bool) "400 over the wire" true (contains ~sub:"HTTP/1.1 400" reply);
  Alcotest.(check bool) "reason" true (contains ~sub:"request too long" reply);
  Alcotest.(check bool) "counted" true (Metrics.value oversized > before)

(* Slow loris: a partial request followed by silence answers 408 after
   read_timeout_ms. *)
let test_slow_loris_408 () =
  let timeouts = Metrics.counter "bionav_resilience_request_timeouts_total" in
  let before = Metrics.value timeouts in
  let config = { fast_config with Http.read_timeout_ms = 60. } in
  let reply = machine_reply ~config [ Send "GET /x HTT"; Wait 61. ] in
  Alcotest.(check bool) "408 over the wire" true (contains ~sub:"HTTP/1.1 408" reply);
  Alcotest.(check int) "timeout counted" (before + 1) (Metrics.value timeouts)

(* A drip-fed request — one byte every read_timeout_ms / 2 — is timed
   from its first byte: each byte does not restart the deadline. *)
let test_drip_fed_408 () =
  let timeouts = Metrics.counter "bionav_resilience_request_timeouts_total" in
  let before = Metrics.value timeouts in
  let config = { fast_config with Http.read_timeout_ms = 60. } in
  let req = "GET /drip HTTP/1.1\r\n\r\n" in
  let reply, closed =
    run_machine ~config
      (List.concat_map (fun i -> [ Send (String.make 1 req.[i]); Wait 30. ])
         (List.init (String.length req) Fun.id))
  in
  Alcotest.(check int) "one 408, nothing else" 408 (status_of reply);
  Alcotest.(check bool) "handler never ran" false (contains ~sub:"hello" reply);
  Alcotest.(check bool) "closed" true closed;
  Alcotest.(check int) "timeout counted" (before + 1) (Metrics.value timeouts)

(* A peer that pipelines requests and never reads holds at most one
   rendered response; once that write makes no progress for
   idle_timeout_ms the connection is closed. *)
let test_slow_reader_closed () =
  let idle_closed = Metrics.counter "bionav_serve_idle_closed_total" in
  let before = Metrics.value idle_closed in
  let calls = ref 0 in
  let big = String.make 65536 'b' in
  let handler ~path:_ ~query:_ =
    incr calls;
    Http.ok big
  in
  let config = { fast_config with Http.idle_timeout_ms = 60. } in
  let _, closed =
    run_machine ~config ~handler ~reads:false
      [ Send (String.concat "" (List.init 20 (fun _ -> "GET /big HTTP/1.1\r\n\r\n"))); Wait 61. ]
  in
  Alcotest.(check int) "one response buffered" 1 !calls;
  Alcotest.(check bool) "closed" true closed;
  Alcotest.(check int) "stall counted as idle close" (before + 1) (Metrics.value idle_closed)

(* max_requests_per_conn: the budget-exhausting response carries
   Connection: close. *)
let test_max_requests_per_conn () =
  let config = { fast_config with Http.max_requests_per_conn = 2 } in
  let reply =
    machine_reply ~config
      [ Send "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n"; Hangup ]
  in
  Alcotest.(check int) "two served" 2 (count_sub ~sub:"HTTP/1.1 200 OK" reply);
  Alcotest.(check int) "one keep-alive" 1 (count_sub ~sub:"Connection: keep-alive" reply);
  Alcotest.(check int) "then close" 1 (count_sub ~sub:"Connection: close" reply);
  Alcotest.(check bool) "third unanswered" false (contains ~sub:"hello /c" reply)

(* --- parser unit tests ------------------------------------------------ *)

let buf_of s =
  let b = Bytes.create (max 1 (String.length s)) in
  Bytes.blit_string s 0 b 0 (String.length s);
  (b, String.length s)

let test_parser_resumable () =
  let partials = [ "GE"; "GET /x HT"; "GET /x HTTP/1.1\r\n"; "GET /x HTTP/1.1\r\nHost: a\r\n" ] in
  List.iter
    (fun p ->
      let b, len = buf_of p in
      match Http.Parser.parse b ~len with
      | Http.Parser.Incomplete -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%S should be Incomplete" p))
    partials;
  let full = "GET /x HTTP/1.1\r\nHost: a\r\n\r\ntrailing" in
  let b, len = buf_of full in
  match Http.Parser.parse b ~len with
  | Http.Parser.Complete (req, consumed) ->
      Alcotest.(check string) "meth" "GET" req.Http.Parser.meth;
      Alcotest.(check string) "target" "/x" req.Http.Parser.target;
      Alcotest.(check int) "consumed up to body" (String.length full - 8) consumed
  | _ -> Alcotest.fail "full request should be Complete"

let keep_of s =
  let b, len = buf_of s in
  match Http.Parser.parse b ~len with
  | Http.Parser.Complete (req, _) -> req.Http.Parser.keep_alive
  | _ -> Alcotest.fail (Printf.sprintf "%S should parse" s)

let test_parser_keep_alive_semantics () =
  Alcotest.(check bool) "1.1 defaults keep" true (keep_of "GET / HTTP/1.1\r\n\r\n");
  Alcotest.(check bool) "1.0 defaults close" false (keep_of "GET / HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "1.0 + keep-alive keeps" true
    (keep_of "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  Alcotest.(check bool) "1.1 + close closes" false
    (keep_of "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  Alcotest.(check bool) "token list honors close" false
    (keep_of "GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n");
  Alcotest.(check bool) "unknown version closes" false (keep_of "GET / HTTP/0.9\r\n\r\n")

let test_parser_bounds_on_incomplete () =
  let b, len = buf_of (String.make 100 'a') in
  (match Http.Parser.parse ~max_line:32 b ~len with
  | Http.Parser.Error Http.Parser.Line_too_long -> ()
  | _ -> Alcotest.fail "newline-less oversized line must error now");
  let many = "GET / HTTP/1.1\r\n" ^ String.concat "" (List.init 40 (fun i -> Printf.sprintf "H%d: v\r\n" i)) in
  let b, len = buf_of many in
  (match Http.Parser.parse ~max_headers:16 b ~len with
  | Http.Parser.Error Http.Parser.Too_many_headers -> ()
  | _ -> Alcotest.fail "header flood must error even while incomplete");
  let b, len = buf_of "FOO\r\n\r\n" in
  match Http.Parser.parse b ~len with
  | Http.Parser.Error Http.Parser.Bad_request_line -> ()
  | _ -> Alcotest.fail "malformed request line must error"

(* --- fragmentation property ------------------------------------------- *)

(* Drive the parser the way a connection does: accumulate, parse,
   consume on Complete, repeat. The property also replays each split
   through the connection machine, whose responses must match the
   whole stream's. *)
let parse_stream chunks =
  let buf = Bytes.create 65536 in
  let len = ref 0 in
  let out = ref [] in
  List.iter
    (fun chunk ->
      Bytes.blit_string chunk 0 buf !len (String.length chunk);
      len := !len + String.length chunk;
      let rec drain () =
        match Http.Parser.parse buf ~len:!len with
        | Http.Parser.Complete (req, consumed) ->
            out := req :: !out;
            let rest = !len - consumed in
            if rest > 0 then Bytes.blit buf consumed buf 0 rest;
            len := rest;
            drain ()
        | Http.Parser.Incomplete | Http.Parser.Error _ -> ()
      in
      drain ())
    chunks;
  List.rev !out

let request_gen =
  QCheck.Gen.(
    let token = oneofl [ "/"; "/a"; "/search?q=x"; "/session?sid=s0"; "/p/q" ] in
    let meth = oneofl [ "GET"; "POST"; "HEAD" ] in
    let header =
      oneofl
        [ "Host: bench"; "Connection: close"; "Connection: keep-alive"; "Accept: */*";
          "X-Pad: pppppp" ]
    in
    let* m = meth in
    let* t = token in
    let* hs = list_size (int_bound 4) header in
    return (m ^ " " ^ t ^ " HTTP/1.1\r\n" ^ String.concat "" (List.map (fun h -> h ^ "\r\n") hs) ^ "\r\n"))

let fragmentation_prop =
  QCheck.Test.make ~name:"any fragmentation parses to the same request list" ~count:300
    QCheck.(
      make
        Gen.(
          let* reqs = list_size (int_range 1 4) request_gen in
          let stream = String.concat "" reqs in
          let* cuts = list_size (int_bound 20) (int_bound (max 1 (String.length stream))) in
          return (stream, List.sort_uniq compare cuts)))
    (fun (stream, cuts) ->
      let n = String.length stream in
      let cuts = List.filter (fun c -> c > 0 && c < n) cuts in
      let bounds = (0 :: cuts) @ [ n ] in
      let rec chunks = function
        | a :: (b :: _ as rest) -> String.sub stream a (b - a) :: chunks rest
        | _ -> []
      in
      let chunks = chunks bounds in
      let replay chunks = machine_reply (List.map (fun c -> Send c) chunks @ [ Hangup ]) in
      parse_stream chunks = parse_stream [ stream ] && replay chunks = replay [ stream ])

(* --- admission control on the simulated clock ------------------------- *)

let test_token_bucket_refill () =
  let clock = Clock.simulated ~start_ms:0. () in
  let adm = Admission.create ~clock { Admission.rate = 2.; burst = 4 } in
  let admit () = Admission.admit adm ~peer:"a" = Admission.Admit in
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "burst admit %d" i) true (admit ())
  done;
  Alcotest.(check bool) "burst exhausted" false (admit ());
  Clock.advance clock 1000.;
  Alcotest.(check (float 0.0001)) "refill math: 2 tokens after 1s at 2/s" 2.
    (Admission.peek_tokens adm ~peer:"a");
  Alcotest.(check bool) "refilled admit 1" true (admit ());
  Alcotest.(check bool) "refilled admit 2" true (admit ());
  Alcotest.(check bool) "refill bounded" false (admit ());
  Clock.advance clock 60_000.;
  Alcotest.(check (float 0.0001)) "refill capped at burst" 4.
    (Admission.peek_tokens adm ~peer:"a")

(* One greedy peer hammering every tick cannot starve a polite peer
   arriving at its fair rate. *)
let test_greedy_cannot_starve_polite () =
  let clock = Clock.simulated ~start_ms:0. () in
  let adm = Admission.create ~clock { Admission.rate = 10.; burst = 5 } in
  let served = Hashtbl.create 4 in
  let attempt peer =
    match Admission.admit adm ~peer with
    | Admission.Admit ->
        Hashtbl.replace served peer (1 + Option.value ~default:0 (Hashtbl.find_opt served peer))
    | Admission.Shed_rate_limited -> ()
  in
  let polite_attempts = ref 0 in
  for tick = 1 to 1000 do
    (* greedy: every 10 ms; polite: every 100 ms — exactly its fair 10/s. *)
    attempt "greedy";
    if tick mod 10 = 0 then begin
      incr polite_attempts;
      attempt "polite"
    end;
    Clock.advance clock 10.
  done;
  let count p = Option.value ~default:0 (Hashtbl.find_opt served p) in
  Alcotest.(check int) "polite fully served" !polite_attempts (count "polite");
  Alcotest.(check bool) "greedy bounded by its bucket" true (count "greedy" <= 5 + 101);
  Alcotest.(check bool) "greedy not starved either" true (count "greedy" >= 90)

(* --- end-to-end over TCP (readiness loop) ----------------------------- *)

let spawn_serve ~config ~max_requests handler =
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

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Keep-alive reuse: five sequential request/response exchanges on one
   connection, reuse counted. *)
let test_keepalive_reuse () =
  let reuse = Metrics.counter "bionav_serve_keepalive_reuses_total" in
  let before = Metrics.value reuse in
  let server, port = spawn_serve ~config:fast_config ~max_requests:5 hello_handler in
  let fd = connect port in
  let pending = Buffer.create 256 in
  for i = 1 to 5 do
    write_str fd (Printf.sprintf "GET /r%d HTTP/1.1\r\n\r\n" i);
    let status, raw = read_response fd pending in
    Alcotest.(check int) (Printf.sprintf "request %d status" i) 200 status;
    Alcotest.(check bool)
      (Printf.sprintf "request %d keep-alive" i)
      true
      (contains ~sub:"Connection: keep-alive" raw);
    Alcotest.(check bool)
      (Printf.sprintf "request %d body" i)
      true
      (contains ~sub:(Printf.sprintf "hello /r%d" i) raw)
  done;
  Unix.close fd;
  Domain.join server;
  Alcotest.(check bool) "reuses counted" true (Metrics.value reuse >= before + 4)

(* Stop a server started with [~max_requests:1] whose test traffic never
   reached the handler. *)
let stop_server server port =
  let fd = connect port in
  write_str fd "GET /stop HTTP/1.1\r\nConnection: close\r\n\r\n";
  ignore (read_all fd);
  Unix.close fd;
  Domain.join server

(* A request cut short by the peer's EOF is answered 400, not dropped. *)
let test_serve_truncated_400 () =
  let parse_errors = Metrics.counter "bionav_serve_parse_errors_total" in
  let before = Metrics.value parse_errors in
  let server, port = spawn_serve ~config:fast_config ~max_requests:1 hello_handler in
  let fd = connect port in
  write_str fd "GET /x HT";
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let reply = read_all fd in
  Unix.close fd;
  stop_server server port;
  Alcotest.(check bool) "400 over TCP" true (contains ~sub:"HTTP/1.1 400" reply);
  Alcotest.(check bool) "reason" true (contains ~sub:"truncated request" reply);
  Alcotest.(check int) "parse error counted" (before + 1) (Metrics.value parse_errors)

(* A peer that pipelines requests for large bodies and never reads: the
   server renders one response, stalls on it, and closes the connection
   once the write makes no progress for idle_timeout_ms. *)
let test_serve_slow_reader () =
  let idle_closed = Metrics.counter "bionav_serve_idle_closed_total" in
  let before = Metrics.value idle_closed in
  let calls = Atomic.make 0 in
  let big = String.make (16 lsl 20) 'b' in
  let handler ~path ~query =
    if path = "/big" then begin
      Atomic.incr calls;
      Http.ok big
    end
    else hello_handler ~path ~query
  in
  let config = { fast_config with Http.idle_timeout_ms = 200. } in
  let server, port = spawn_serve ~config ~max_requests:2 handler in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  write_str fd (String.concat "" (List.init 8 (fun _ -> "GET /big HTTP/1.1\r\n\r\n")));
  let deadline = Unix.gettimeofday () +. 10. in
  while Metrics.value idle_closed = before && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  let buffered = Atomic.get calls in
  Unix.close fd;
  stop_server server port;
  Alcotest.(check int) "one response rendered" 1 buffered;
  Alcotest.(check int) "stalled connection closed" (before + 1) (Metrics.value idle_closed)

(* keep_alive=false: responses are byte-for-byte the output of
   render_response — the sequential pre-keep-alive contract. *)
let test_domains1_bytes_preserved () =
  let config = { Http.default_server_config with Http.keep_alive = false } in
  let server, port = spawn_serve ~config ~max_requests:1 hello_handler in
  let fd = connect port in
  write_str fd "GET /legacy HTTP/1.1\r\n\r\n";
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let reply = read_all fd in
  Unix.close fd;
  Domain.join server;
  Alcotest.(check string) "byte-for-byte render_response"
    (Http.render_response (Http.ok "hello /legacy"))
    reply

let test_serve_keepalive_e2e () =
  let server, port =
    spawn_serve ~config:Http.default_server_config ~max_requests:3 hello_handler
  in
  let fd = connect port in
  let pending = Buffer.create 256 in
  for i = 1 to 3 do
    write_str fd (Printf.sprintf "GET /k%d HTTP/1.1\r\n\r\n" i);
    let status, raw = read_response fd pending in
    Alcotest.(check int) (Printf.sprintf "e2e status %d" i) 200 status;
    Alcotest.(check bool)
      (Printf.sprintf "e2e body %d" i)
      true
      (contains ~sub:(Printf.sprintf "hello /k%d" i) raw)
  done;
  Unix.close fd;
  Domain.join server

(* Handlers run inline in the one poll loop; [domains] survives only as a
   field that must be 1. *)
let test_serve_rejects_domains () =
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "domains = %d rejected" domains)
        true
        (match
           Http.serve ~config:{ Http.default_server_config with Http.domains } ~port:0
             hello_handler
         with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ 0; 2 ]

(* Per-peer rate limiting through the full server: burst of 2, third
   pipelined request answered 503 without reaching the handler. *)
let test_serve_rate_limit_503 () =
  let shed = Metrics.counter Admission.shed_rate_limited_total in
  let before = Metrics.value shed in
  let config =
    { Http.default_server_config with Http.rate_limit = 1.; rate_burst = 2 }
  in
  let server, port = spawn_serve ~config ~max_requests:2 hello_handler in
  let fd = connect port in
  write_str fd "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n";
  let pending = Buffer.create 256 in
  let s1, _ = read_response fd pending in
  let s2, _ = read_response fd pending in
  let s3, raw3 = read_response fd pending in
  Unix.close fd;
  Domain.join server;
  Alcotest.(check (list int)) "two admitted, one shed" [ 200; 200; 503 ] [ s1; s2; s3 ];
  Alcotest.(check bool) "rate-limit body" true (contains ~sub:"rate limited" raw3);
  Alcotest.(check bool) "policy counter" true (Metrics.value shed > before)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "pipelined pair in one write" `Quick test_pipelined_pair;
          Alcotest.test_case "request split byte by byte" `Quick test_split_byte_by_byte;
          Alcotest.test_case "keep-alive reuse across 5 requests" `Quick test_keepalive_reuse;
          Alcotest.test_case "idle timeout closes silently" `Quick
            test_idle_timeout_closes_silently;
          Alcotest.test_case "Connection: close honored" `Quick test_connection_close_honored;
          Alcotest.test_case "close defaults (1.0, keep_alive=false)" `Quick
            test_close_defaults;
          Alcotest.test_case "oversized header line still 400" `Quick
            test_oversized_header_line;
          Alcotest.test_case "slow loris still 408" `Quick test_slow_loris_408;
          Alcotest.test_case "drip-fed request 408" `Quick test_drip_fed_408;
          Alcotest.test_case "slow reader holds one response" `Quick test_slow_reader_closed;
          Alcotest.test_case "max_requests_per_conn forces close" `Quick
            test_max_requests_per_conn;
        ] );
      ( "parser",
        [
          Alcotest.test_case "incremental parse is resumable" `Quick test_parser_resumable;
          Alcotest.test_case "keep-alive header semantics" `Quick
            test_parser_keep_alive_semantics;
          Alcotest.test_case "bounds enforced on incomplete input" `Quick
            test_parser_bounds_on_incomplete;
          QCheck_alcotest.to_alcotest fragmentation_prop;
        ] );
      ( "admission",
        [
          Alcotest.test_case "token-bucket refill math" `Quick test_token_bucket_refill;
          Alcotest.test_case "greedy cannot starve polite" `Quick
            test_greedy_cannot_starve_polite;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "domains=1 bytes preserved" `Quick test_domains1_bytes_preserved;
          Alcotest.test_case "keep-alive over TCP (domains=1)" `Quick test_serve_keepalive_e2e;
          Alcotest.test_case "domains other than 1 rejected" `Quick test_serve_rejects_domains;
          Alcotest.test_case "per-peer rate limit sheds 503" `Quick test_serve_rate_limit_503;
          Alcotest.test_case "truncated request 400" `Quick test_serve_truncated_400;
          Alcotest.test_case "slow reader closed" `Quick test_serve_slow_reader;
        ] );
    ]
