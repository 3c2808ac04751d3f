(** The HTTP/1.1 serving tier: keep-alive with pipelining, a readiness
    loop over poll(2), and per-peer admission control.

    Only GET is supported. The {!serve} entry point runs a single
    listener domain that owns every socket: it accepts, reads, parses
    (incrementally, via {!Parser}) and writes, so an idle keep-alive
    connection costs a few hundred bytes of state instead of a parked
    domain. With [domains = 1] parsed requests run inline on the
    listener (sequential handler semantics, byte-for-byte the responses
    of the pre-keep-alive server when [keep_alive = false]); with
    [domains > 1] ready parsed requests are handed to a fixed pool of
    worker domains over a bounded queue and the rendered responses come
    back to the listener for writing — the handler must then be safe to
    call from multiple domains concurrently (the engine's sharded
    sessions and domain-safe metrics are). No external dependencies
    beyond [Unix] and a small poll(2) stub ({!Poll}).

    Hardened against misbehaving peers: request lines and header lines
    are length-bounded even while incomplete (400 past the bound), a
    peer that stalls mid-request gets a 408 after [read_timeout_ms], an
    idle keep-alive connection is closed silently after
    [idle_timeout_ms], connections beyond [max_connections] are shed
    with an immediate 503, and {!Admission} sheds rate-limited or
    over-capacity requests with a 503 before they reach a worker.

    Metrics: the hardening counters
    ([bionav_resilience_request_timeouts_total],
    [bionav_resilience_oversized_requests_total],
    [bionav_resilience_shed_connections_total],
    [bionav_web_queue_depth]) plus the serving-tier family —
    [bionav_serve_open_connections], [bionav_serve_idle_connections],
    [bionav_serve_requests_total], [bionav_serve_keepalive_reuses_total],
    [bionav_serve_parse_errors_total], [bionav_serve_idle_closed_total],
    [bionav_serve_queue_wait_ms] and the {!Admission} shed counters. *)

type response = { status : int; content_type : string; body : string }

val ok : ?content_type:string -> string -> response
(** 200 with text/html by default. *)

val not_found : string -> response
val bad_request : string -> response

type handler = path:string -> query:(string * string) list -> response

type server_config = {
  backlog : int;  (** [Unix.listen] backlog (>= 1). Default 128. *)
  read_timeout_ms : float;
      (** Deadline for completing a started request; a stalled peer
          times out with a 408. 0 disables. Default 5000. *)
  max_request_line : int;
      (** Bound on the request line and each header line, in bytes
          (>= 1); longer gets a 400. Default 8192. *)
  max_connections : int;
      (** Cap on concurrently open connections (>= 1); accepts beyond
          it are shed with an immediate 503. Default 1024. *)
  domains : int;
      (** Worker domains (>= 1). 1 (the default) runs handlers inline
          on the listener; N > 1 spawns N workers fed parsed requests
          by the listener. *)
  queue_capacity : int;
      (** Bound on the listener→worker request queue (>= 1, default
          64); parsed requests beyond it are shed with a 503, the queue
          depth is published as [bionav_web_queue_depth]. Unused when
          [domains = 1]. *)
  keep_alive : bool;
      (** Allow connection reuse (default [true]). [false] forces
          [Connection: close] on every response regardless of what the
          client asked for. *)
  idle_timeout_ms : float;
      (** Close a connection silently after this long with no request
          in progress (counted in [bionav_serve_idle_closed_total]).
          0 disables. Default 30000. *)
  max_requests_per_conn : int;
      (** Requests served on one connection before the server forces
          [Connection: close] (>= 1). Default 1000. *)
  rate_limit : float;
      (** Per-peer admission rate, requests/second ({!Admission} token
          bucket). 0 disables the bucket. Default 0. *)
  rate_burst : int;
      (** Token-bucket capacity per peer (>= 1). Default 64. *)
  max_inflight : int;
      (** Global cap on requests admitted but not yet answered (>= 1).
          Default 1024. *)
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

val parse_request_line : string -> (string * string) option
(** ["GET /x HTTP/1.1"] -> [Some ("GET", "/x")]; [None] if malformed. *)

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

val serve_connection : ?config:server_config -> handler -> Unix.file_descr -> unit
(** Serve one established connection to completion with blocking reads:
    the keep-alive request/response loop over {!Parser}, answering
    pipelined requests in order until the client closes, sends
    [Connection: close], exhausts [max_requests_per_conn], or times
    out — [idle_timeout_ms] between requests closes silently,
    [read_timeout_ms] mid-request answers 408 (both via [SO_RCVTIMEO]).
    This is the single-connection semantics of {!serve} in a form a
    socketpair test can drive; it does {e not} apply admission control
    and does {e not} close the descriptor. *)

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
(** The readiness-loop server. One listener domain owns the listening
    socket and every connection: poll(2) readiness drives non-blocking
    accepts, reads, incremental parsing and writes; complete parsed
    requests pass {!Admission} and run either inline ([domains = 1]) or
    on the worker pool, whose rendered responses return to the listener
    for in-order writing. Exceptions from the handler produce a 500 and
    are logged; socket errors on one connection do not kill the server.
    [on_ready] fires once the socket is listening, with the actual
    bound port (pass [port:0] to let the kernel pick — the way tests
    avoid port races). With [max_requests:n] the server stops after [n]
    handler-served requests, drains the workers, flushes and closes all
    connections and returns — without it, the loop never returns
    normally. @raise Invalid_argument on a malformed [config] or
    [max_requests < 1]; [Unix.Unix_error] if binding fails. *)
