module Metrics = Bionav_util.Metrics
module Bounded_queue = Bionav_util.Bounded_queue
module Clock = Bionav_resilience.Clock

type response = { status : int; content_type : string; body : string }

let ok ?(content_type = "text/html; charset=utf-8") body = { status = 200; content_type; body }

let not_found body = { status = 404; content_type = "text/plain; charset=utf-8"; body }

let bad_request body = { status = 400; content_type = "text/plain; charset=utf-8"; body }

type handler = path:string -> query:(string * string) list -> response

type server_config = {
  backlog : int;
  read_timeout_ms : float;
  max_request_line : int;
  max_connections : int;
  domains : int;
  queue_capacity : int;
  keep_alive : bool;
  idle_timeout_ms : float;
  max_requests_per_conn : int;
  rate_limit : float;
  rate_burst : int;
  max_inflight : int;
  clock : Clock.t;
}

let default_server_config =
  {
    backlog = 128;
    read_timeout_ms = 5_000.;
    max_request_line = 8192;
    max_connections = 1024;
    domains = 1;
    queue_capacity = 64;
    keep_alive = true;
    idle_timeout_ms = 30_000.;
    max_requests_per_conn = 1000;
    rate_limit = 0.;
    rate_burst = 64;
    max_inflight = 1024;
    clock = Clock.real;
  }

let validate_server_config c =
  if c.backlog < 1 then invalid_arg "Http: backlog must be >= 1";
  if c.read_timeout_ms < 0. then invalid_arg "Http: read_timeout_ms must be >= 0";
  if c.max_request_line < 1 then invalid_arg "Http: max_request_line must be >= 1";
  if c.max_connections < 1 then invalid_arg "Http: max_connections must be >= 1";
  if c.domains < 1 then invalid_arg "Http: domains must be >= 1";
  if c.queue_capacity < 1 then invalid_arg "Http: queue_capacity must be >= 1";
  if c.idle_timeout_ms < 0. then invalid_arg "Http: idle_timeout_ms must be >= 0";
  if c.max_requests_per_conn < 1 then invalid_arg "Http: max_requests_per_conn must be >= 1";
  if c.rate_limit < 0. then invalid_arg "Http: rate_limit must be >= 0";
  if c.rate_burst < 1 then invalid_arg "Http: rate_burst must be >= 1";
  if c.max_inflight < 1 then invalid_arg "Http: max_inflight must be >= 1"

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* Malformed escapes — a lone ['%'], or ['%'] followed by fewer than two
   hex digits (including at end-of-string) — pass through verbatim
   rather than erroring: the decoder never fails, the handler decides
   what a weird parameter means. [plus_as_space] is the
   [x-www-form-urlencoded] rule and applies to query components only; in
   a path, ['+'] is an ordinary character. *)
let url_decode_component ~plus_as_space s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else
      match s.[i] with
      | '+' when plus_as_space ->
          Buffer.add_char buf ' ';
          go (i + 1)
      | '%' when i + 2 < n -> (
          match (hex_value s.[i + 1], hex_value s.[i + 2]) with
          | Some hi, Some lo ->
              Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
              go (i + 3)
          | _ ->
              Buffer.add_char buf '%';
              go (i + 1))
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0;
  Buffer.contents buf

let url_decode s = url_decode_component ~plus_as_space:true s

let parse_target target =
  match String.index_opt target '?' with
  | None -> (url_decode_component ~plus_as_space:false target, [])
  | Some k ->
      let path = String.sub target 0 k in
      let query_str = String.sub target (k + 1) (String.length target - k - 1) in
      let params =
        String.split_on_char '&' query_str
        |> List.filter (fun p -> p <> "")
        |> List.map (fun pair ->
               match String.index_opt pair '=' with
               | None -> (url_decode pair, "")
               | Some e ->
                   ( url_decode (String.sub pair 0 e),
                     url_decode (String.sub pair (e + 1) (String.length pair - e - 1)) ))
      in
      (url_decode_component ~plus_as_space:false path, params)

let parse_request_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ meth; target; _version ] -> Some (meth, target)
  | _ -> None

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let render_response_keep ~keep_alive r =
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n%s"
    r.status (status_text r.status) r.content_type (String.length r.body)
    (if keep_alive then "keep-alive" else "close")
    r.body

let render_response r = render_response_keep ~keep_alive:false r

let max_header_lines = 128

(* --- incremental request parser ---------------------------------------- *)

module Parser = struct
  type version = Http_10 | Http_11 | Http_other

  type request = { meth : string; target : string; version : version; keep_alive : bool }

  type error = Bad_request_line | Line_too_long | Too_many_headers

  type outcome = Complete of request * int | Incomplete | Error of error

  let version_of = function
    | "HTTP/1.1" -> Http_11
    | "HTTP/1.0" -> Http_10
    | _ -> Http_other

  let find_nl buf ~len from =
    let rec go i =
      if i >= len then -1 else if Bytes.get buf i = '\n' then i else go (i + 1)
    in
    go from

  let line_of buf start nl =
    let stop = if nl > start && Bytes.get buf (nl - 1) = '\r' then nl - 1 else nl in
    Bytes.sub_string buf start (stop - start)

  (* RFC 7230 §3.5 robustness: ignore blank lines before the request
     line (a keep-alive client may emit a stray CRLF between requests). *)
  let rec skip_blank buf ~len i =
    if i >= len then i
    else
      match Bytes.get buf i with
      | '\n' -> skip_blank buf ~len (i + 1)
      | '\r' when i + 1 < len && Bytes.get buf (i + 1) = '\n' -> skip_blank buf ~len (i + 2)
      | _ -> i

  (* Every bound is enforced on /incomplete/ input too: a line that has
     already outgrown [max_line] is an error now, not after the attacker
     deigns to send the newline. *)
  let parse ?(max_line = default_server_config.max_request_line)
      ?(max_headers = max_header_lines) buf ~len =
    let start = skip_blank buf ~len 0 in
    match find_nl buf ~len start with
    | -1 -> if len - start > max_line then Error Line_too_long else Incomplete
    | nl when nl - start > max_line -> Error Line_too_long
    | nl -> (
        match String.split_on_char ' ' (String.trim (line_of buf start nl)) with
        | [ meth; target; vstr ] when meth <> "" && target <> "" ->
            let version = version_of vstr in
            let conn_close = ref false in
            let conn_keep = ref false in
            let rec headers i nheaders =
              if nheaders > max_headers then Error Too_many_headers
              else
                match find_nl buf ~len i with
                | -1 -> if len - i > max_line then Error Line_too_long else Incomplete
                | nl2 when nl2 - i > max_line -> Error Line_too_long
                | nl2 ->
                    let line = line_of buf i nl2 in
                    if line = "" then begin
                      let keep_alive =
                        if !conn_close then false
                        else if !conn_keep then true
                        else version = Http_11
                      in
                      Complete ({ meth; target; version; keep_alive }, nl2 + 1)
                    end
                    else begin
                      (match String.index_opt line ':' with
                      | Some c
                        when String.lowercase_ascii (String.trim (String.sub line 0 c))
                             = "connection" ->
                          String.sub line (c + 1) (String.length line - c - 1)
                          |> String.split_on_char ','
                          |> List.iter (fun tok ->
                                 match String.lowercase_ascii (String.trim tok) with
                                 | "close" -> conn_close := true
                                 | "keep-alive" -> conn_keep := true
                                 | _ -> ())
                      | Some _ | None -> ());
                      headers (nl2 + 1) (nheaders + 1)
                    end
            in
            headers (nl + 1) 0
        | _ -> Error Bad_request_line)
end

(* --- metrics ------------------------------------------------------------ *)

let timeouts_counter = Metrics.counter "bionav_resilience_request_timeouts_total"
let oversized_counter = Metrics.counter "bionav_resilience_oversized_requests_total"
let shed_counter = Metrics.counter "bionav_resilience_shed_connections_total"
let queue_gauge = Metrics.gauge "bionav_web_queue_depth"
let open_conns_gauge = Metrics.gauge "bionav_serve_open_connections"
let idle_conns_gauge = Metrics.gauge "bionav_serve_idle_connections"
let serve_requests_counter = Metrics.counter "bionav_serve_requests_total"
let keepalive_reuse_counter = Metrics.counter "bionav_serve_keepalive_reuses_total"
let parse_errors_counter = Metrics.counter "bionav_serve_parse_errors_total"
let idle_closed_counter = Metrics.counter "bionav_serve_idle_closed_total"
let queue_wait_hist = Metrics.histogram "bionav_serve_queue_wait_ms"

(* --- connection I/O ------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let run_handler handler (req : Parser.request) =
  let path, query = parse_target req.Parser.target in
  try handler ~path ~query
  with e ->
    Logs.err (fun m -> m "handler error on %s: %s" path (Printexc.to_string e));
    { status = 500; content_type = "text/plain"; body = "internal error" }

let method_not_allowed =
  { status = 405; content_type = "text/plain"; body = "only GET is supported" }

let shed_connection client =
  Metrics.incr shed_counter;
  (try
     write_all client
       (render_response
          { status = 503;
            content_type = "text/plain; charset=utf-8";
            body = "server overloaded, try again" })
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close client with Unix.Unix_error _ -> ()

(* --- keep-alive connection driver (blocking; socketpair-testable) ------- *)

let recv_capacity config = max 16384 (2 * config.max_request_line)

(* A response carries [Connection: keep-alive] only if the server allows
   it, the request asked for (or defaulted to) it, and this response
   does not exhaust the per-connection budget. *)
let effective_keep config ~served (req : Parser.request) =
  config.keep_alive && req.Parser.keep_alive && served + 1 < config.max_requests_per_conn

let timeout_response =
  { status = 408; content_type = "text/plain; charset=utf-8"; body = "request timeout" }

let overload_response =
  { status = 503; content_type = "text/plain; charset=utf-8"; body = "server overloaded, try again" }

let rate_limited_response =
  { status = 503; content_type = "text/plain; charset=utf-8"; body = "rate limited, slow down" }

(* Serve one established connection to completion with blocking reads:
   the keep-alive request/response loop over the incremental parser,
   with SO_RCVTIMEO bounding each wait — [idle_timeout_ms] between
   requests (expiry closes silently), [read_timeout_ms] mid-request
   (expiry answers 408). This is the single-connection semantics of the
   readiness loop in a form a socketpair test can drive; it does not
   close [fd]. *)
let serve_connection ?(config = default_server_config) handler fd =
  validate_server_config config;
  let cap = recv_capacity config in
  let buf = Bytes.create cap in
  let rlen = ref 0 in
  let served = ref 0 in
  let set_deadline ms =
    try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (if ms > 0. then ms /. 1000. else 0.)
    with Unix.Unix_error _ -> ()
  in
  let send ~keep resp =
    write_all fd (render_response_keep ~keep_alive:keep resp);
    incr served
  in
  let rec step () =
    match Parser.parse ~max_line:config.max_request_line buf ~len:!rlen with
    | Parser.Error e ->
        Metrics.incr parse_errors_counter;
        (match e with
        | Parser.Line_too_long | Parser.Too_many_headers ->
            Metrics.incr oversized_counter;
            send ~keep:false (bad_request "request too long")
        | Parser.Bad_request_line -> send ~keep:false (bad_request "malformed request line"))
    | Parser.Complete (req, consumed) ->
        let rest = !rlen - consumed in
        if rest > 0 then Bytes.blit buf consumed buf 0 rest;
        rlen := rest;
        let keep = effective_keep config ~served:!served req in
        Metrics.incr serve_requests_counter;
        if !served > 0 then Metrics.incr keepalive_reuse_counter;
        send ~keep
          (if req.Parser.meth <> "GET" then method_not_allowed else run_handler handler req);
        if keep then step ()
    | Parser.Incomplete ->
        if !rlen >= cap then begin
          Metrics.incr parse_errors_counter;
          Metrics.incr oversized_counter;
          send ~keep:false (bad_request "request too long")
        end
        else begin
          let idle = !rlen = 0 in
          set_deadline (if idle then config.idle_timeout_ms else config.read_timeout_ms);
          match Unix.read fd buf !rlen (cap - !rlen) with
          | 0 ->
              if !rlen > 0 then begin
                Metrics.incr parse_errors_counter;
                send ~keep:false (bad_request "truncated request")
              end
          | n ->
              rlen := !rlen + n;
              step ()
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
              if idle then Metrics.incr idle_closed_counter
              else begin
                Metrics.incr timeouts_counter;
                send ~keep:false timeout_response
              end
        end
  in
  try step () with
  | Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ()
  | Sys_error _ -> ()

(* --- readiness-loop server ---------------------------------------------- *)

(* Per-connection state owned exclusively by the listener domain. An
   idle connection is this record plus a drained 256-byte read buffer —
   a few hundred bytes, not a parked domain. *)
type conn = {
  fd : Unix.file_descr;
  peer : string;
  mutable buf : Bytes.t;
  mutable rlen : int;
  outq : string Queue.t;
  mutable out_off : int;
  mutable busy : bool;
  mutable served : int;
  mutable last_activity_ms : float;
  mutable close_after_write : bool;
  mutable eof : bool;
  mutable closed : bool;
}

type pending = { p_conn : conn; p_req : Parser.request; p_keep : bool; p_enqueued_ms : float }

let initial_rbuf = 256

let serve ?(host = "127.0.0.1") ?(config = default_server_config) ?on_ready ?max_requests
    ~port handler =
  validate_server_config config;
  (match max_requests with
  | Some n when n < 1 -> invalid_arg "Http.serve: max_requests must be >= 1"
  | Some _ | None -> ());
  let clock = config.clock in
  let cap = recv_capacity config in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock config.backlog;
  Unix.set_nonblock sock;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  Logs.app (fun m ->
      m "bionav listening on http://%s:%d (%d domain%s, keep-alive %s)" host port
        config.domains
        (if config.domains = 1 then "" else "s")
        (if config.keep_alive then "on" else "off"));
  (match on_ready with Some f -> f ~port | None -> ());
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 1024 in
  let adm =
    Admission.create ~clock
      { Admission.rate = config.rate_limit;
        burst = config.rate_burst;
        max_inflight = config.max_inflight }
  in
  let inline = config.domains = 1 in
  let queue : pending Bounded_queue.t = Bounded_queue.create ~capacity:config.queue_capacity in
  let completions_mu = Mutex.create () in
  let completions : (conn * string * bool) list ref = ref [] in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let wake () =
    try ignore (Unix.write_substring wake_w "w" 0 1) with Unix.Unix_error _ -> ()
  in
  let completed = ref 0 in
  let running = ref true in
  let budget_ok () = match max_requests with None -> true | Some n -> !completed < n in
  let close_conn c =
    if not c.closed then begin
      c.closed <- true;
      Hashtbl.remove conns c.fd;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Metrics.set open_conns_gauge (float_of_int (Hashtbl.length conns))
    end
  in
  let rec flush_conn c =
    if not c.closed then
      match Queue.peek_opt c.outq with
      | None -> if c.close_after_write || (c.eof && not c.busy) then close_conn c
      | Some s -> (
          let remaining = String.length s - c.out_off in
          match Unix.write_substring c.fd s c.out_off remaining with
          | n when n = remaining ->
              ignore (Queue.pop c.outq);
              c.out_off <- 0;
              flush_conn c
          | n -> c.out_off <- c.out_off + n
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error (_, _, _) -> close_conn c)
  in
  let respond_direct c ~keep resp =
    Queue.push (render_response_keep ~keep_alive:keep resp) c.outq;
    c.served <- c.served + 1;
    if not keep then c.close_after_write <- true
  in
  let consume c n =
    let rest = c.rlen - n in
    if rest > 0 then Bytes.blit c.buf n c.buf 0 rest;
    c.rlen <- rest;
    (* Shrink a grown buffer once drained so parked keep-alive
       connections pay the idle footprint, not their largest request. *)
    if rest = 0 && Bytes.length c.buf > 4096 then c.buf <- Bytes.create initial_rbuf
  in
  let rec dispatch c =
    if (not c.closed) && (not c.busy) && not c.close_after_write then
      match Parser.parse ~max_line:config.max_request_line c.buf ~len:c.rlen with
      | Parser.Incomplete ->
          if c.rlen >= cap then begin
            Metrics.incr parse_errors_counter;
            Metrics.incr oversized_counter;
            respond_direct c ~keep:false (bad_request "request too long")
          end
      | Parser.Error e ->
          Metrics.incr parse_errors_counter;
          (match e with
          | Parser.Bad_request_line ->
              respond_direct c ~keep:false (bad_request "malformed request line")
          | Parser.Line_too_long | Parser.Too_many_headers ->
              Metrics.incr oversized_counter;
              respond_direct c ~keep:false (bad_request "request too long"))
      | Parser.Complete (req, consumed) -> (
          consume c consumed;
          c.last_activity_ms <- Clock.now_ms clock;
          let keep = effective_keep config ~served:c.served req in
          if req.Parser.meth <> "GET" then begin
            Metrics.incr serve_requests_counter;
            respond_direct c ~keep method_not_allowed;
            dispatch c
          end
          else
            match Admission.admit adm ~peer:c.peer with
            | Admission.Shed_rate_limited ->
                respond_direct c ~keep rate_limited_response;
                dispatch c
            | Admission.Shed_overload ->
                Metrics.incr shed_counter;
                respond_direct c ~keep overload_response;
                dispatch c
            | Admission.Admit ->
                Metrics.incr serve_requests_counter;
                if c.served > 0 then Metrics.incr keepalive_reuse_counter;
                c.busy <- true;
                if inline then begin
                  let resp = run_handler handler req in
                  apply_completion (c, render_response_keep ~keep_alive:keep resp, keep)
                end
                else begin
                  let p =
                    { p_conn = c; p_req = req; p_keep = keep;
                      p_enqueued_ms = Clock.now_ms clock }
                  in
                  if Bounded_queue.try_push queue p then
                    Metrics.set queue_gauge (float_of_int (Bounded_queue.length queue))
                  else begin
                    Admission.release adm;
                    c.busy <- false;
                    Metrics.incr shed_counter;
                    Metrics.incr (Metrics.counter Admission.shed_overload_total);
                    respond_direct c ~keep overload_response;
                    dispatch c
                  end
                end)
  and apply_completion (c, rendered, keep) =
    Admission.release adm;
    incr completed;
    if not (budget_ok ()) then running := false;
    if not c.closed then begin
      c.busy <- false;
      Queue.push rendered c.outq;
      c.served <- c.served + 1;
      if not keep then c.close_after_write <- true;
      flush_conn c;
      if not c.closed then begin
        dispatch c;
        flush_conn c
      end
    end
  in
  let worker () =
    let rec loop () =
      match Bounded_queue.pop_opt queue with
      | None -> ()
      | Some p ->
          Metrics.observe queue_wait_hist (Float.max 0. (Clock.now_ms clock -. p.p_enqueued_ms));
          let resp = run_handler handler p.p_req in
          let rendered = render_response_keep ~keep_alive:p.p_keep resp in
          Mutex.protect completions_mu (fun () ->
              completions := (p.p_conn, rendered, p.p_keep) :: !completions);
          wake ();
          loop ()
    in
    loop ()
  in
  let workers =
    if inline then [||] else Array.init config.domains (fun _ -> Domain.spawn worker)
  in
  let grow c =
    let nb = Bytes.create (min cap (2 * Bytes.length c.buf)) in
    Bytes.blit c.buf 0 nb 0 c.rlen;
    c.buf <- nb
  in
  let handle_readable c =
    let rec rd () =
      if (not c.closed) && c.rlen < cap && not c.eof then begin
        if c.rlen = Bytes.length c.buf then grow c;
        match Unix.read c.fd c.buf c.rlen (Bytes.length c.buf - c.rlen) with
        | 0 -> c.eof <- true
        | n ->
            c.rlen <- c.rlen + n;
            c.last_activity_ms <- Clock.now_ms clock;
            rd ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> close_conn c
      end
    in
    rd ();
    if not c.closed then begin
      dispatch c;
      if not c.closed then flush_conn c
    end
  in
  let accept_ready () =
    let continue = ref true in
    while !continue do
      match Unix.accept sock with
      | client, addr ->
          if Hashtbl.length conns >= config.max_connections then shed_connection client
          else begin
            Unix.set_nonblock client;
            (try Unix.setsockopt client Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
            let peer =
              match addr with
              | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
              | Unix.ADDR_UNIX p -> "unix:" ^ p
            in
            let c =
              { fd = client; peer; buf = Bytes.create initial_rbuf; rlen = 0;
                outq = Queue.create (); out_off = 0; busy = false; served = 0;
                last_activity_ms = Clock.now_ms clock; close_after_write = false;
                eof = false; closed = false }
            in
            Hashtbl.replace conns client c;
            Metrics.set open_conns_gauge (float_of_int (Hashtbl.length conns))
          end
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EMFILE | ENFILE), _, _) ->
          continue := false
      | exception Unix.Unix_error ((ECONNABORTED | EINTR), _, _) -> ()
    done
  in
  let wake_buf = Bytes.create 256 in
  let drain_wake () =
    let rec go () =
      match Unix.read wake_r wake_buf 0 256 with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    in
    go ()
  in
  let drain_completions () =
    let comps =
      Mutex.protect completions_mu (fun () ->
          let l = !completions in
          completions := [];
          List.rev l)
    in
    List.iter apply_completion comps
  in
  let sweep now =
    let idle_count = ref 0 in
    let to_idle_close = ref [] in
    let to_timeout = ref [] in
    Hashtbl.iter
      (fun _ c ->
        if not c.closed then
          if (not c.busy) && c.rlen = 0 && Queue.is_empty c.outq then begin
            incr idle_count;
            if config.idle_timeout_ms > 0. && now -. c.last_activity_ms > config.idle_timeout_ms
            then to_idle_close := c :: !to_idle_close
          end
          else if
            (not c.busy) && c.rlen > 0 && config.read_timeout_ms > 0.
            && now -. c.last_activity_ms > config.read_timeout_ms
          then to_timeout := c :: !to_timeout)
      conns;
    Metrics.set idle_conns_gauge (float_of_int !idle_count);
    List.iter
      (fun c ->
        Metrics.incr idle_closed_counter;
        close_conn c)
      !to_idle_close;
    List.iter
      (fun c ->
        Metrics.incr timeouts_counter;
        respond_direct c ~keep:false timeout_response;
        flush_conn c)
      !to_timeout
  in
  let pset = Poll.create ~initial_capacity:1024 () in
  let reg : conn option array ref = ref (Array.make 1024 None) in
  let reg_n = ref 0 in
  let reg_push co =
    if !reg_n = Array.length !reg then begin
      let nr = Array.make (2 * Array.length !reg) None in
      Array.blit !reg 0 nr 0 !reg_n;
      reg := nr
    end;
    !reg.(!reg_n) <- co;
    incr reg_n
  in
  let last_sweep = ref (Clock.now_ms clock) in
  while !running do
    Poll.clear pset;
    reg_n := 0;
    Poll.add pset sock Poll.pollin;
    reg_push None;
    Poll.add pset wake_r Poll.pollin;
    reg_push None;
    Hashtbl.iter
      (fun _ c ->
        let ev =
          (if (not c.busy) && (not c.close_after_write) && (not c.eof) && c.rlen < cap then
             Poll.pollin
           else 0)
          lor (if Queue.is_empty c.outq then 0 else Poll.pollout)
        in
        Poll.add pset c.fd ev;
        reg_push (Some c))
      conns;
    ignore (Poll.wait pset ~timeout_ms:100);
    let n = Poll.length pset in
    for i = 0 to n - 1 do
      if !running then begin
        let _fd, re = Poll.ready pset i in
        if re <> 0 then
          match !reg.(i) with
          | None -> if i = 0 then accept_ready () else drain_wake ()
          | Some c ->
              if not c.closed then begin
                if re land Poll.pollout <> 0 then flush_conn c;
                if (not c.closed) && re land Poll.pollin <> 0 then handle_readable c;
                if (not c.closed) && re land Poll.pollerr <> 0 && re land Poll.pollin = 0
                then close_conn c
              end
      end
    done;
    drain_completions ();
    let now = Clock.now_ms clock in
    if now -. !last_sweep >= 100. then begin
      last_sweep := now;
      sweep now
    end
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  if not inline then begin
    Bounded_queue.close queue;
    Array.iter Domain.join workers;
    drain_completions ()
  end;
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  List.iter
    (fun c ->
      (try Unix.clear_nonblock c.fd with Unix.Unix_error _ -> ());
      (try
         while not (Queue.is_empty c.outq) do
           let s = Queue.peek c.outq in
           let n = Unix.write_substring c.fd s c.out_off (String.length s - c.out_off) in
           if c.out_off + n >= String.length s then begin
             ignore (Queue.pop c.outq);
             c.out_off <- 0
           end
           else c.out_off <- c.out_off + n
         done
       with Unix.Unix_error _ -> ());
      close_conn c)
    remaining;
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  try Unix.close wake_w with Unix.Unix_error _ -> ()
