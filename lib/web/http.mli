(** The HTTP/1.1 serving tier: keep-alive with pipelining, a readiness
    loop over poll(2), and per-peer admission control.

    Only GET is supported. The tier is split in two. {!Conn} is a pure
    per-connection state machine (bytes, EOF, responses and clock ticks
    in; writes, handler runs and closes out) and the only implementation
    of the protocol: parsing, pipelining, keep-alive, the 400/405/408
    answers and the deadlines. {!serve} runs one per socket and owns
    everything touching the outside world: one poll loop accepts, reads,
    writes partial output, runs {!Admission} and runs each admitted
    request's handler inline, so an idle keep-alive connection costs a
    few hundred bytes of state and at most one request is in flight.
    With [keep_alive = false] the responses are byte-for-byte those of
    the pre-keep-alive server. No external dependencies beyond [Unix]
    and a small poll(2) stub ({!Poll}).

    Hardened against misbehaving peers: request lines and header lines
    are length-bounded even while incomplete (400 past the bound); a
    request cut short by EOF is answered 400; a request not complete
    within [read_timeout_ms] of its first byte gets a 408, however
    slowly it trickles in; an idle keep-alive connection, and one whose
    peer stops reading its response, is closed silently after
    [idle_timeout_ms]; a connection holds at most one rendered response
    however many requests it pipelines; connections beyond
    [max_connections] are shed with an immediate 503; and {!Admission}
    sheds rate-limited requests with a 503 before their handler runs.

    Metrics: the hardening counters
    ([bionav_resilience_request_timeouts_total],
    [bionav_resilience_oversized_requests_total],
    [bionav_resilience_shed_connections_total]) plus the serving-tier
    family — [bionav_serve_open_connections],
    [bionav_serve_idle_connections], [bionav_serve_requests_total] (every
    complete request head, including shed ones),
    [bionav_serve_keepalive_reuses_total],
    [bionav_serve_parse_errors_total], [bionav_serve_idle_closed_total]
    and the {!Admission} shed counter. *)

type response = { status : int; content_type : string; body : string }

val ok : ?content_type:string -> string -> response
(** 200 with text/html by default. *)

val not_found : string -> response
val bad_request : string -> response

type handler = path:string -> query:(string * string) list -> response

type server_config = {
  backlog : int;  (** [Unix.listen] backlog (>= 1). Default 128. *)
  read_timeout_ms : float;
      (** Deadline for completing a started request, measured from its
          first byte; a stalled or drip-feeding peer times out with a
          408. 0 disables. Default 5000. *)
  max_request_line : int;
      (** Bound on the request line and each header line, in bytes
          (>= 1); longer gets a 400. Default 8192. *)
  max_connections : int;
      (** Cap on concurrently open connections (>= 1); accepts beyond
          it are shed with an immediate 503. Default 1024. *)
  domains : int;
      (** Must be 1 (the default): handlers run inline in the poll loop.
          A worker-domain pool served requests slower than one domain on
          two cores and was removed; the field stays only because the
          benchmark's serve workload sets it, and any other value is
          rejected. *)
  keep_alive : bool;
      (** Allow connection reuse (default [true]). [false] forces
          [Connection: close] on every response regardless of what the
          client asked for. *)
  idle_timeout_ms : float;
      (** Close a connection silently after this long with no request
          in progress, or whose pending response makes no write progress
          for this long (both counted in
          [bionav_serve_idle_closed_total]). 0 disables. Default 30000. *)
  max_requests_per_conn : int;
      (** Requests served on one connection before the server forces
          [Connection: close] (>= 1). Default 1000. *)
  rate_limit : float;
      (** Per-peer admission rate, requests/second ({!Admission} token
          bucket). 0 disables the bucket. Default 0. *)
  rate_burst : int;
      (** Token-bucket capacity per peer (>= 1). Default 64. *)
  clock : Bionav_resilience.Clock.t;
      (** Time source for idle/read deadlines and admission refill;
          inject a simulated clock to test timeout policy
          deterministically. Default {!Clock.real}. *)
}

val default_server_config : server_config

val url_decode : string -> string
(** Percent- and [+]-decoding ([x-www-form-urlencoded]); malformed
    escapes — a lone ["%"], or ["%"] followed by fewer than two hex
    digits, including truncated at end-of-string — pass through
    verbatim. Never raises. *)

val url_decode_component : plus_as_space:bool -> string -> string
(** {!url_decode} with the [+]→space rule optional: pass [false] for
    path components, where ["+"] is an ordinary character. *)

val parse_target : string -> string * (string * string) list
(** Split a request target into path and decoded query parameters:
    ["/a?x=1&y=b%20c"] -> [("/a", [("x","1"); ("y","b c")])]. The path
    is percent-decoded without the [+]→space rule. Repeated keys are
    all kept, in request order, so [List.assoc] sees the first
    occurrence — the behavior every route in {!App} relies on. *)

(** Incremental, resumable HTTP/1.1 request parsing over a
    per-connection buffer.

    {!Parser.parse} is a pure function of the buffer prefix: feed it
    however many bytes have arrived; [Incomplete] means "keep the bytes
    and call again when more arrive", [Complete (req, consumed)] means
    the first [consumed] bytes form one full request head (shift the
    rest down and re-parse for pipelining). Because the result depends
    only on the accumulated prefix, any fragmentation of the byte
    stream parses to the same request sequence as the whole buffer —
    the property the qcheck suite checks. Bounds are enforced on
    incomplete input too, so a drip-fed oversized line errors now, not
    after its newline arrives. *)
module Parser : sig
  type version = Http_10 | Http_11 | Http_other

  type request = {
    meth : string;
    target : string;
    version : version;
    keep_alive : bool;
        (** [Connection] semantics already resolved: an explicit
            [close] wins, an explicit [keep-alive] wins over the
            version default, otherwise HTTP/1.1 keeps and anything
            else closes. *)
  }

  type error = Bad_request_line | Line_too_long | Too_many_headers

  type outcome = Complete of request * int | Incomplete | Error of error

  val parse : ?max_line:int -> ?max_headers:int -> Bytes.t -> len:int -> outcome
  (** Parse the first request head in [buf[0..len)]. [max_line] bounds
      the request line and each header line (default
      [default_server_config.max_request_line]); [max_headers] bounds
      the header count (default {!max_header_lines}). Blank lines
      before the request line are skipped (RFC 7230 §3.5). *)
end

val render_response : response -> string
(** Full HTTP/1.1 response bytes with [Connection: close] — exactly the
    bytes the pre-keep-alive server emitted. *)

val render_response_keep : keep_alive:bool -> response -> string
(** {!render_response} with the [Connection] header chosen by the
    caller; [~keep_alive:false] is byte-identical to
    {!render_response}. *)

val max_header_lines : int
(** Default header-count bound (128). *)

(** The per-connection state machine: the one implementation of the
    HTTP/1.1 connection protocol, which {!serve} drives for every socket
    and tests drive directly with a simulated clock. It owns the read
    buffer, {!Parser} calls and pipelining, the keep-alive decision, the
    400/405/408 responses, the idle and read deadlines and the
    [bionav_serve_*] request and parse-error counters; it touches no
    socket and reads no clock (every event carries [now_ms]).

    Requests are answered strictly one at a time: after a [Run] the
    machine emits nothing until its [Response], and after a [Write]
    nothing until [Flushed]. So a connection never holds more than one
    rendered response, however many requests a peer pipelines. *)
module Conn : sig
  type t

  type event =
    | Data of string  (** Bytes read from the peer (at most {!room}). *)
    | Eof  (** The peer closed its sending side. *)
    | Response of response  (** The answer to the last [Run]. *)
    | Progress  (** Part of the last [Write] reached the peer. *)
    | Flushed  (** All of the last [Write] reached the peer. *)
    | Tick  (** Time passed: check the deadlines. *)

  type action =
    | Write of string
        (** Send these bytes: report [Progress] after a partial write and
            [Flushed] once all are sent. *)
    | Run of Parser.request  (** Answer this GET with a [Response]. *)
    | Close  (** Close the connection now. *)

  val create : server_config -> now_ms:float -> t
  (** @raise Invalid_argument on a malformed config. *)

  val step : t -> now_ms:float -> event -> action list
  (** Deadlines, checked on [Tick]: a request must be complete within
      [read_timeout_ms] of its first byte (or of the previous response
      flushing, if it was pipelined) or it is answered 408 — bytes that
      trickle in do not extend it. A connection with no request in
      progress is closed silently after [idle_timeout_ms]; so is one
      whose pending [Write] makes no progress for [idle_timeout_ms] (a
      peer that stopped reading). [Eof] mid-request answers 400
      ["truncated request"]. *)

  val room : t -> int
  (** How many bytes the machine accepts now: 0 while a request is in
      flight, after [Eof], or while closing. *)

  val idle : t -> bool
  (** No request in progress and nothing buffered either way. *)
end

val shed_connection : Unix.file_descr -> unit
(** Best-effort 503 and close — load shedding for connections beyond
    [max_connections]. *)

val serve :
  ?host:string ->
  ?config:server_config ->
  ?on_ready:(port:int -> unit) ->
  ?max_requests:int ->
  port:int ->
  handler ->
  unit
(** The readiness-loop server. One poll loop, on the calling domain,
    owns the listening socket and every connection: poll(2) readiness
    drives non-blocking accepts, reads and writes, each fed to the
    connection's {!Conn} machine; the requests it emits pass
    {!Admission} and their handler runs inline. Exceptions from the
    handler produce a 500 and are logged; socket errors on one
    connection do not kill the server. [on_ready] fires once the socket
    is listening, with the actual bound port (pass [port:0] to let the
    kernel pick — the way tests avoid port races). With [max_requests:n]
    the server stops after [n] handler-served requests, flushes and
    closes all connections and returns — without it, the loop never
    returns normally. @raise Invalid_argument on a malformed [config]
    (including [domains <> 1]) or [max_requests < 1];
    [Unix.Unix_error] if binding fails. *)
