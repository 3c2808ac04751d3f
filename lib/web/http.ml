module Metrics = Bionav_util.Metrics
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
  keep_alive : bool;
  idle_timeout_ms : float;
  max_requests_per_conn : int;
  rate_limit : float;
  rate_burst : int;
  clock : Clock.t;
}

let default_server_config =
  {
    backlog = 128;
    read_timeout_ms = 5_000.;
    max_request_line = 8192;
    max_connections = 1024;
    domains = 1;
    keep_alive = true;
    idle_timeout_ms = 30_000.;
    max_requests_per_conn = 1000;
    rate_limit = 0.;
    rate_burst = 64;
    clock = Clock.real;
  }

let validate_server_config c =
  if c.backlog < 1 then invalid_arg "Http: backlog must be >= 1";
  if c.read_timeout_ms < 0. then invalid_arg "Http: read_timeout_ms must be >= 0";
  if c.max_request_line < 1 then invalid_arg "Http: max_request_line must be >= 1";
  if c.max_connections < 1 then invalid_arg "Http: max_connections must be >= 1";
  if c.domains <> 1 then invalid_arg "Http: domains must be 1";
  if c.idle_timeout_ms < 0. then invalid_arg "Http: idle_timeout_ms must be >= 0";
  if c.max_requests_per_conn < 1 then invalid_arg "Http: max_requests_per_conn must be >= 1";
  if c.rate_limit < 0. then invalid_arg "Http: rate_limit must be >= 0";
  if c.rate_burst < 1 then invalid_arg "Http: rate_burst must be >= 1"

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
let open_conns_gauge = Metrics.gauge "bionav_serve_open_connections"
let idle_conns_gauge = Metrics.gauge "bionav_serve_idle_connections"
let serve_requests_counter = Metrics.counter "bionav_serve_requests_total"
let keepalive_reuse_counter = Metrics.counter "bionav_serve_keepalive_reuses_total"
let parse_errors_counter = Metrics.counter "bionav_serve_parse_errors_total"
let idle_closed_counter = Metrics.counter "bionav_serve_idle_closed_total"

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

let timeout_response =
  { status = 408; content_type = "text/plain; charset=utf-8"; body = "request timeout" }

let overload_response =
  { status = 503; content_type = "text/plain; charset=utf-8"; body = "server overloaded, try again" }

let rate_limited_response =
  { status = 503; content_type = "text/plain; charset=utf-8"; body = "rate limited, slow down" }

let shed_connection client =
  Metrics.incr shed_counter;
  (try write_all client (render_response overload_response)
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close client with Unix.Unix_error _ -> ()

(* --- per-connection state machine ----------------------------------------- *)

let recv_capacity config = max 16384 (2 * config.max_request_line)

module Conn = struct
  type event = Data of string | Eof | Response of response | Progress | Flushed | Tick

  type action = Write of string | Run of Parser.request | Close

  type t = {
    config : server_config;
    cap : int;
    mutable buf : Bytes.t;
    mutable rlen : int;
    mutable served : int;
    mutable keep : bool;  (* keep-alive verdict of the request in flight *)
    mutable busy : bool;  (* a [Run] awaits its [Response] *)
    mutable writing : bool;  (* a [Write] awaits [Flushed] *)
    mutable eof : bool;
    mutable since_ms : float;  (* start of whichever deadline applies now *)
  }

  let initial_buf = 256

  let create config ~now_ms =
    validate_server_config config;
    { config; cap = recv_capacity config; buf = Bytes.create initial_buf; rlen = 0; served = 0;
      keep = true; busy = false; writing = false; eof = false; since_ms = now_ms }

  let room t = if t.busy || t.eof || (t.writing && not t.keep) then 0 else max 0 (t.cap - t.rlen)

  let idle t = (not (t.busy || t.writing)) && t.rlen = 0

  let append t s =
    let n = String.length s in
    if t.rlen + n > Bytes.length t.buf then begin
      let nb = Bytes.create (max (t.rlen + n) (min t.cap (2 * Bytes.length t.buf))) in
      Bytes.blit t.buf 0 nb 0 t.rlen;
      t.buf <- nb
    end;
    Bytes.blit_string s 0 t.buf t.rlen n;
    t.rlen <- t.rlen + n

  let consume t n =
    let rest = t.rlen - n in
    if rest > 0 then Bytes.blit t.buf n t.buf 0 rest;
    t.rlen <- rest;
    (* Shrink a grown buffer once drained so parked keep-alive
       connections pay the idle footprint, not their largest request. *)
    if rest = 0 && Bytes.length t.buf > 4096 then t.buf <- Bytes.create initial_buf

  let write t ~now_ms ~keep resp =
    t.keep <- keep;
    t.writing <- true;
    t.served <- t.served + 1;
    t.since_ms <- now_ms;
    [ Write (render_response_keep ~keep_alive:keep resp) ]

  let reject t ~now_ms ~oversized reason =
    Metrics.incr parse_errors_counter;
    if oversized then Metrics.incr oversized_counter;
    write t ~now_ms ~keep:false (bad_request reason)

  (* Parse the next buffered request; called only when no request is in
     flight, so pipelined requests are answered strictly one at a time. *)
  let next t ~now_ms =
    match Parser.parse ~max_line:t.config.max_request_line t.buf ~len:t.rlen with
    | Parser.Error Parser.Bad_request_line ->
        reject t ~now_ms ~oversized:false "malformed request line"
    | Parser.Error (Parser.Line_too_long | Parser.Too_many_headers) ->
        reject t ~now_ms ~oversized:true "request too long"
    | Parser.Incomplete when t.rlen >= t.cap -> reject t ~now_ms ~oversized:true "request too long"
    | Parser.Incomplete when t.eof ->
        if t.rlen > 0 then reject t ~now_ms ~oversized:false "truncated request" else [ Close ]
    | Parser.Incomplete -> []
    | Parser.Complete (req, consumed) ->
        consume t consumed;
        Metrics.incr serve_requests_counter;
        if t.served > 0 then Metrics.incr keepalive_reuse_counter;
        (* [Connection: keep-alive] only if the server allows it, the
           request asked for (or defaulted to) it, and this response does
           not exhaust the per-connection budget. *)
        let c = t.config in
        let keep =
          c.keep_alive && req.Parser.keep_alive && t.served + 1 < c.max_requests_per_conn
        in
        if req.Parser.meth <> "GET" then write t ~now_ms ~keep method_not_allowed
        else begin
          t.keep <- keep;
          t.busy <- true;
          [ Run req ]
        end

  let expired t ~now_ms limit = limit > 0. && now_ms -. t.since_ms > limit

  let step t ~now_ms = function
    | Data s ->
        if t.rlen = 0 && not (t.busy || t.writing) then t.since_ms <- now_ms;
        append t s;
        if t.busy || t.writing then [] else next t ~now_ms
    | Eof ->
        t.eof <- true;
        if t.busy || t.writing then [] else next t ~now_ms
    | Response r ->
        t.busy <- false;
        write t ~now_ms ~keep:t.keep r
    | Progress ->
        t.since_ms <- now_ms;
        []
    | Flushed ->
        t.writing <- false;
        t.since_ms <- now_ms;
        if t.keep then next t ~now_ms else [ Close ]
    | Tick ->
        if t.busy then []
        else if t.writing || t.rlen = 0 then
          if expired t ~now_ms t.config.idle_timeout_ms then begin
            Metrics.incr idle_closed_counter;
            [ Close ]
          end
          else []
        else if expired t ~now_ms t.config.read_timeout_ms then begin
          Metrics.incr timeouts_counter;
          write t ~now_ms ~keep:false timeout_response
        end
        else []
end

(* --- readiness loop over the machines ------------------------------------ *)

(* The loop's view of one connection: the socket and the bytes of the
   one response the machine may have pending. An idle connection is this
   record plus the machine's drained 256-byte read buffer. *)
type conn = {
  fd : Unix.file_descr;
  peer : string;
  m : Conn.t;
  mutable out : string;
  mutable out_off : int;
  mutable closed : bool;
}

let serve ?(host = "127.0.0.1") ?(config = default_server_config) ?on_ready ?max_requests
    ~port handler =
  validate_server_config config;
  (match max_requests with
  | Some n when n < 1 -> invalid_arg "Http.serve: max_requests must be >= 1"
  | Some _ | None -> ());
  let clock = config.clock in
  let now () = Clock.now_ms clock in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen sock config.backlog;
  Unix.set_nonblock sock;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  Logs.app (fun m ->
      m "bionav listening on http://%s:%d (keep-alive %s)" host port
        (if config.keep_alive then "on" else "off"));
  (match on_ready with Some f -> f ~port | None -> ());
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 1024 in
  let adm =
    Admission.create ~clock { Admission.rate = config.rate_limit; burst = config.rate_burst }
  in
  let completed = ref 0 in
  let running = ref true in
  let close_conn c =
    if not c.closed then begin
      c.closed <- true;
      Hashtbl.remove conns c.fd;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Metrics.set open_conns_gauge (float_of_int (Hashtbl.length conns))
    end
  in
  let rec feed c ev = if not c.closed then List.iter (act c) (Conn.step c.m ~now_ms:(now ()) ev)
  and act c = function
    | _ when c.closed -> ()
    | Conn.Close -> close_conn c
    | Conn.Write s ->
        c.out <- s;
        c.out_off <- 0;
        flush c
    | Conn.Run req -> (
        match Admission.admit adm ~peer:c.peer with
        | Admission.Shed_rate_limited -> feed c (Conn.Response rate_limited_response)
        | Admission.Admit ->
            let resp = run_handler handler req in
            incr completed;
            (match max_requests with
            | Some n when !completed >= n -> running := false
            | Some _ | None -> ());
            feed c (Conn.Response resp))
  and flush c =
    let remaining = String.length c.out - c.out_off in
    if (not c.closed) && remaining > 0 then
      match Unix.write_substring c.fd c.out c.out_off remaining with
      | n when n = remaining ->
          c.out <- "";
          c.out_off <- 0;
          feed c Conn.Flushed
      | n ->
          c.out_off <- c.out_off + n;
          feed c Conn.Progress
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> close_conn c
  in
  let scratch = Bytes.create (recv_capacity config) in
  let rec handle_readable c =
    let room = min (Conn.room c.m) (Bytes.length scratch) in
    if (not c.closed) && room > 0 then
      match Unix.read c.fd scratch 0 room with
      | 0 -> feed c Conn.Eof
      | n ->
          feed c (Conn.Data (Bytes.sub_string scratch 0 n));
          handle_readable c
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> close_conn c
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
            Hashtbl.replace conns client
              { fd = client; peer; m = Conn.create config ~now_ms:(now ()); out = ""; out_off = 0;
                closed = false };
            Metrics.set open_conns_gauge (float_of_int (Hashtbl.length conns))
          end
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EMFILE | ENFILE), _, _) ->
          continue := false
      | exception Unix.Unix_error ((ECONNABORTED | EINTR), _, _) -> ()
    done
  in
  let sweep () =
    let idle_count = ref 0 in
    let all = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
    List.iter
      (fun c ->
        if Conn.idle c.m then incr idle_count;
        feed c Conn.Tick)
      all;
    Metrics.set idle_conns_gauge (float_of_int !idle_count)
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
  let last_sweep = ref (now ()) in
  while !running do
    Poll.clear pset;
    reg_n := 0;
    Poll.add pset sock Poll.pollin;
    reg_push None;
    Hashtbl.iter
      (fun _ c ->
        let ev =
          (if Conn.room c.m > 0 then Poll.pollin else 0)
          lor if c.out = "" then 0 else Poll.pollout
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
          | None -> accept_ready ()
          | Some c ->
              if not c.closed then begin
                if re land Poll.pollout <> 0 then flush c;
                if (not c.closed) && re land Poll.pollin <> 0 then handle_readable c;
                if (not c.closed) && re land Poll.pollerr <> 0 && re land Poll.pollin = 0
                then close_conn c
              end
      end
    done;
    if now () -. !last_sweep >= 100. then begin
      last_sweep := now ();
      sweep ()
    end
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  List.iter
    (fun c ->
      (try
         Unix.clear_nonblock c.fd;
         write_all c.fd (String.sub c.out c.out_off (String.length c.out - c.out_off))
       with Unix.Unix_error _ -> ());
      close_conn c)
    remaining
