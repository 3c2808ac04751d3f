open Bionav_util
module S = Bionav_mesh.Synthetic
module G = Bionav_corpus.Generator
module DB = Bionav_store.Database
module Eu = Bionav_search.Eutils
module Html = Bionav_web.Html
module Http = Bionav_web.Http
module App = Bionav_web.App

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* --- Html --- *)

let test_escape () =
  Alcotest.(check string) "all specials" "&amp;&lt;&gt;&quot;&#39;" (Html.escape "&<>\"'");
  Alcotest.(check string) "plain untouched" "hello" (Html.escape "hello")

let test_tag_and_link () =
  Alcotest.(check string) "tag" "<p class=\"x\">body</p>"
    (Html.tag ~attrs:[ ("class", "x") ] "p" "body");
  Alcotest.(check string) "attr escaped" "<p title=\"a&quot;b\"></p>"
    (Html.tag ~attrs:[ ("title", "a\"b") ] "p" "");
  Alcotest.(check string) "link label escaped" "<a href=\"/x\">a&lt;b</a>"
    (Html.link ~href:"/x" "a<b")

let test_url_encoding () =
  Alcotest.(check string) "plain" "/p" (Html.url "/p" []);
  Alcotest.(check string) "params" "/p?q=a+b&x=1%2F2"
    (Html.url "/p" [ ("q", "a b"); ("x", "1/2") ])

let test_page_shape () =
  let p = Html.page ~title:"T<" "BODY" in
  Alcotest.(check bool) "doctype" true (contains ~sub:"<!DOCTYPE html>" p);
  Alcotest.(check bool) "escaped title" true (contains ~sub:"T&lt;" p);
  Alcotest.(check bool) "body" true (contains ~sub:"BODY" p)

(* --- Http parsing --- *)

let test_url_decode () =
  Alcotest.(check string) "plus" "a b" (Http.url_decode "a+b");
  Alcotest.(check string) "percent" "a/b" (Http.url_decode "a%2Fb");
  Alcotest.(check string) "malformed passes through" "a%zz" (Http.url_decode "a%zz");
  Alcotest.(check string) "roundtrip" "x y/z"
    (Http.url_decode (String.concat "" [ "x"; "+"; "y"; "%2F"; "z" ]))

let test_url_decode_malformed () =
  Alcotest.(check string) "lone percent" "%" (Http.url_decode "%");
  Alcotest.(check string) "trailing percent" "a%" (Http.url_decode "a%");
  Alcotest.(check string) "one hex digit at end" "%2" (Http.url_decode "%2");
  Alcotest.(check string) "bad second digit" "%2Gx" (Http.url_decode "%2Gx");
  Alcotest.(check string) "bad first digit" "%zz" (Http.url_decode "%zz");
  Alcotest.(check string) "recovers after bad escape" "%zz c" (Http.url_decode "%zz+c");
  Alcotest.(check string) "percent-encoded percent" "100%" (Http.url_decode "100%25")

let test_plus_in_path () =
  (* '+' is an ordinary character in a path; the form rule applies to
     query components only. *)
  Alcotest.(check (pair string (list (pair string string)))) "path plus survives"
    ("/a+b", [ ("q", "c d") ])
    (Http.parse_target "/a+b?q=c+d");
  Alcotest.(check (pair string (list (pair string string)))) "path percent decodes"
    ("/a b", [])
    (Http.parse_target "/a%20b")

let test_repeated_keys () =
  let _, params = Http.parse_target "/a?k=1&k=2&k=3&other=x" in
  Alcotest.(check (list (pair string string))) "all occurrences kept in order"
    [ ("k", "1"); ("k", "2"); ("k", "3"); ("other", "x") ]
    params;
  Alcotest.(check (option string)) "assoc sees the first" (Some "1") (List.assoc_opt "k" params)

let qcheck_url_roundtrip =
  QCheck.Test.make ~name:"Html.url encode -> parse_target decode roundtrip" ~count:500
    QCheck.(pair string string)
    (fun (k, v) ->
      Http.parse_target (Html.url "/p" [ (k, v) ]) = ("/p", [ (k, v) ]))

let qcheck_url_decode_total =
  QCheck.Test.make ~name:"url_decode never raises" ~count:500 QCheck.string (fun s ->
      ignore (Http.url_decode s : string);
      ignore (Http.url_decode_component ~plus_as_space:false s : string);
      true)

let test_parse_target () =
  Alcotest.(check (pair string (list (pair string string)))) "no query" ("/a", [])
    (Http.parse_target "/a");
  Alcotest.(check (pair string (list (pair string string)))) "with query"
    ("/a", [ ("x", "1"); ("y", "b c") ])
    (Http.parse_target "/a?x=1&y=b%20c");
  Alcotest.(check (pair string (list (pair string string)))) "flag param"
    ("/a", [ ("flag", "") ])
    (Http.parse_target "/a?flag")

let test_render_response () =
  let r = Http.render_response (Http.ok "hi") in
  Alcotest.(check bool) "status line" true (contains ~sub:"HTTP/1.1 200 OK" r);
  Alcotest.(check bool) "length" true (contains ~sub:"Content-Length: 2" r);
  Alcotest.(check bool) "body" true (contains ~sub:"\r\n\r\nhi" r)

(* --- App flows --- *)

let app_fixture =
  lazy
    (let h = S.generate ~params:S.small_params ~seed:121 () in
     let deep =
       List.filter (fun c -> Bionav_mesh.Hierarchy.depth h c >= 3)
         (List.init (Bionav_mesh.Hierarchy.size h) Fun.id)
     in
     let params =
       {
         G.small_params with
         G.n_citations = 600;
         seeded_groups =
           [
             {
               G.tag = Some "webtag";
               cluster = [ List.nth deep 0; List.nth deep 9 ];
               count = 60;
               topics_per_citation = (1, 2);
             };
           ];
       }
     in
     let m = G.generate ~params ~seed:122 h in
     App.create ~suggestions:[ "webtag" ] ~database:(DB.of_medline m) ~eutils:(Eu.create m) ())

let get app path query = App.handle app ~path ~query

let test_home () =
  let app = Lazy.force app_fixture in
  let r = get app "/" [] in
  Alcotest.(check int) "200" 200 r.Http.status;
  Alcotest.(check bool) "form" true (contains ~sub:"<form" r.Http.body);
  Alcotest.(check bool) "suggestion" true (contains ~sub:"webtag" r.Http.body)

let test_unknown_route () =
  let app = Lazy.force app_fixture in
  Alcotest.(check int) "404" 404 (get app "/nope" []).Http.status

let test_search_creates_session () =
  let app = Lazy.force app_fixture in
  let before = App.session_count app in
  let r = get app "/search" [ ("q", "webtag") ] in
  Alcotest.(check int) "200" 200 r.Http.status;
  Alcotest.(check int) "session created" (before + 1) (App.session_count app);
  Alcotest.(check bool) "tree rendered" true (contains ~sub:"MeSH" r.Http.body);
  Alcotest.(check bool) "expand link" true (contains ~sub:"/expand?" r.Http.body)

let test_search_no_results () =
  let app = Lazy.force app_fixture in
  let r = get app "/search" [ ("q", "zzzznotaword") ] in
  Alcotest.(check int) "still 200" 200 r.Http.status;
  Alcotest.(check bool) "message" true (contains ~sub:"No results" r.Http.body)

let test_search_validation () =
  let app = Lazy.force app_fixture in
  Alcotest.(check int) "missing q" 400 (get app "/search" []).Http.status;
  Alcotest.(check int) "bad strategy" 400
    (get app "/search" [ ("q", "webtag"); ("strategy", "wat") ]).Http.status

let test_page_size_validation () =
  let app = Lazy.force app_fixture in
  Alcotest.(check int) "zero page size" 400
    (get app "/search" [ ("q", "webtag"); ("strategy", "paged"); ("page_size", "0") ])
      .Http.status;
  Alcotest.(check int) "negative page size" 400
    (get app "/search" [ ("q", "webtag"); ("strategy", "paged"); ("page_size", "-2") ])
      .Http.status;
  Alcotest.(check int) "malformed page size" 400
    (get app "/search" [ ("q", "webtag"); ("strategy", "paged"); ("page_size", "ten") ])
      .Http.status;
  Alcotest.(check int) "valid page size" 200
    (get app "/search" [ ("q", "webtag"); ("strategy", "paged"); ("page_size", "5") ])
      .Http.status

let test_metrics_route () =
  let app = Lazy.force app_fixture in
  ignore (get app "/search" [ ("q", "webtag") ]);
  let r = get app "/metrics" [] in
  Alcotest.(check int) "200" 200 r.Http.status;
  Alcotest.(check bool) "plaintext" true
    (contains ~sub:"text/plain" r.Http.content_type);
  Alcotest.(check bool) "session counter present" true
    (contains ~sub:"bionav_sessions_started_total" r.Http.body);
  Alcotest.(check bool) "live gauge present" true
    (contains ~sub:"bionav_sessions_live" r.Http.body);
  Alcotest.(check bool) "not html" false (contains ~sub:"<html" r.Http.body)

(* Extract the first sid/node pair of a [route] link from a page. *)
let find_link_params ~route body =
  let marker = route ^ "?sid=" in
  let rec find i =
    if i + String.length marker >= String.length body then None
    else if String.sub body i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let rest = String.sub body i (min 80 (String.length body - i)) in
      (* link shape: /expand?sid=s0&amp;node=12 followed by a quote *)
      let after = String.sub rest (String.length marker) (String.length rest - String.length marker) in
      let sid = String.sub after 0 (String.index after '&') in
      let node_marker = "node=" in
      let rec findn j =
        if String.sub after j (String.length node_marker) = node_marker then j else findn (j + 1)
      in
      let j = findn 0 + String.length node_marker in
      let k = ref j in
      while !k < String.length after && after.[!k] >= '0' && after.[!k] <= '9' do incr k done;
      Some (sid, int_of_string (String.sub after j (!k - j)))

let find_expand_params body = find_link_params ~route:"/expand" body

let test_expand_show_back_flow () =
  let app = Lazy.force app_fixture in
  let r = get app "/search" [ ("q", "webtag") ] in
  match find_expand_params r.Http.body with
  | None -> Alcotest.fail "no expand link on fresh session"
  | Some (sid, node) ->
      let r2 = get app "/expand" [ ("sid", sid); ("node", string_of_int node) ] in
      Alcotest.(check int) "expand ok" 200 r2.Http.status;
      Alcotest.(check bool) "more nodes shown" true
        (String.length r2.Http.body > String.length r.Http.body);
      let r3 = get app "/show" [ ("sid", sid); ("node", string_of_int node) ] in
      Alcotest.(check int) "show ok" 200 r3.Http.status;
      Alcotest.(check bool) "citations listed" true (contains ~sub:"citation" r3.Http.body);
      let r4 = get app "/back" [ ("sid", sid) ] in
      Alcotest.(check int) "back ok" 200 r4.Http.status

let test_session_validation () =
  let app = Lazy.force app_fixture in
  Alcotest.(check int) "missing sid" 400 (get app "/session" []).Http.status;
  Alcotest.(check int) "unknown sid" 404
    (get app "/session" [ ("sid", "nope") ]).Http.status;
  let r = get app "/search" [ ("q", "webtag") ] in
  match find_expand_params r.Http.body with
  | None -> Alcotest.fail "no expand link"
  | Some (sid, _) ->
      Alcotest.(check int) "bad node" 400
        (get app "/expand" [ ("sid", sid); ("node", "xyz") ]).Http.status;
      Alcotest.(check int) "node out of range" 400
        (get app "/expand" [ ("sid", sid); ("node", "999999") ]).Http.status

let test_refine_unrefine_flow () =
  let app = Lazy.force app_fixture in
  let r = get app "/search" [ ("q", "webtag") ] in
  match find_expand_params r.Http.body with
  | None -> Alcotest.fail "no expand link"
  | Some (sid, node) ->
      let r2 = get app "/expand" [ ("sid", sid); ("node", string_of_int node) ] in
      (match find_link_params ~route:"/refine" r2.Http.body with
      | None -> Alcotest.fail "no refine link after expand"
      | Some (sid', rnode) ->
          Alcotest.(check string) "refine link targets same session" sid sid';
          let r3 = get app "/refine" [ ("sid", sid); ("node", string_of_int rnode) ] in
          Alcotest.(check int) "refine ok" 200 r3.Http.status;
          Alcotest.(check bool) "derived space in bar" true
            (contains ~sub:"refine:" r3.Http.body);
          Alcotest.(check bool) "depth shown" true (contains ~sub:"(depth 1)" r3.Http.body);
          Alcotest.(check bool) "undo link offered" true
            (contains ~sub:"/unrefine?" r3.Http.body);
          let r4 = get app "/unrefine" [ ("sid", sid) ] in
          Alcotest.(check int) "unrefine ok" 200 r4.Http.status;
          Alcotest.(check bool) "base space restored" false
            (contains ~sub:"refine:" r4.Http.body);
          Alcotest.(check bool) "depth back to 0" true
            (contains ~sub:"(depth 0)" r4.Http.body))

let test_facets_flow () =
  let app = Lazy.force app_fixture in
  let r = get app "/search" [ ("q", "webtag") ] in
  match find_expand_params r.Http.body with
  | None -> Alcotest.fail "no expand link"
  | Some (sid, _) ->
      let r2 = get app "/facets" [ ("sid", sid) ] in
      Alcotest.(check int) "facets ok" 200 r2.Http.status;
      Alcotest.(check bool) "facet space in bar" true
        (contains ~sub:"&gt;facets (depth 1)" r2.Http.body);
      (* Cutting along the qualifier dimension twice is refused, not crashed. *)
      Alcotest.(check int) "facet of facet rejected" 400
        (get app "/facets" [ ("sid", sid) ]).Http.status;
      let r3 = get app "/unrefine" [ ("sid", sid) ] in
      Alcotest.(check int) "unrefine pops facet space" 200 r3.Http.status;
      Alcotest.(check bool) "base space restored" true
        (contains ~sub:"(depth 0)" r3.Http.body)

let test_space_route_validation () =
  let app = Lazy.force app_fixture in
  Alcotest.(check int) "refine missing sid" 400 (get app "/refine" []).Http.status;
  Alcotest.(check int) "unrefine missing sid" 400 (get app "/unrefine" []).Http.status;
  Alcotest.(check int) "facets missing sid" 400 (get app "/facets" []).Http.status;
  Alcotest.(check int) "refine unknown sid" 404
    (get app "/refine" [ ("sid", "nope"); ("node", "1") ]).Http.status;
  let r = get app "/search" [ ("q", "webtag") ] in
  match find_expand_params r.Http.body with
  | None -> Alcotest.fail "no expand link"
  | Some (sid, _) ->
      Alcotest.(check int) "refine malformed node" 400
        (get app "/refine" [ ("sid", sid); ("node", "xyz") ]).Http.status;
      Alcotest.(check int) "refine node out of range" 400
        (get app "/refine" [ ("sid", sid); ("node", "999999") ]).Http.status;
      (* Unrefining the base space is a harmless no-op, not an error. *)
      Alcotest.(check int) "unrefine at depth 0" 200
        (get app "/unrefine" [ ("sid", sid) ]).Http.status

let test_handler_never_raises () =
  let app = Lazy.force app_fixture in
  let rng = Rng.create 5 in
  let paths =
    [|
      "/"; "/search"; "/session"; "/expand"; "/show"; "/back"; "/refine";
      "/unrefine"; "/facets"; "/junk";
    |]
  in
  let keys = [| "q"; "sid"; "node"; "strategy"; "bogus" |] in
  let values = [| ""; "webtag"; "s0"; "-3"; "999999"; "drop table"; "%%%" |] in
  for _ = 1 to 500 do
    let path = Rng.choice rng paths in
    let query =
      List.init (Rng.int rng 3) (fun _ -> (Rng.choice rng keys, Rng.choice rng values))
    in
    let r = App.handle app ~path ~query in
    if not (List.mem r.Http.status [ 200; 400; 404 ]) then
      Alcotest.fail (Printf.sprintf "unexpected status %d for %s" r.Http.status path)
  done

(* --- Hardening: drive the full read/respond path of a real server --- *)

let hello_handler ~path:_ ~query:_ = Http.ok "hello"

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

let http_get ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      read_all sock)

(* Send [request] to [Http.serve] on an ephemeral port and read until the
   server closes. With [half_close] the client shuts its sending side
   first; without it the peer just goes silent. The server stops after
   one handler-served request, so if [request] never reached the handler
   a final GET stops it. *)
let exchange ?(config = Http.default_server_config) ?(half_close = true) request =
  let hits = Atomic.make 0 in
  let handler ~path ~query =
    Atomic.incr hits;
    hello_handler ~path ~query
  in
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Http.serve ~config ~on_ready:(fun ~port:p -> Atomic.set port p) ~max_requests:1 ~port:0
          handler)
  in
  while Atomic.get port = 0 do
    Domain.cpu_relax ()
  done;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, Atomic.get port));
  ignore (Unix.write_substring sock request 0 (String.length request));
  if half_close then Unix.shutdown sock Unix.SHUTDOWN_SEND;
  let reply = read_all sock in
  Unix.close sock;
  if Atomic.get hits = 0 then ignore (http_get ~port:(Atomic.get port) "/stop");
  Domain.join server;
  reply

let test_socket_roundtrip () =
  let reply = exchange "GET /x HTTP/1.1\r\n\r\n" in
  Alcotest.(check bool) "200 over the wire" true (contains ~sub:"HTTP/1.1 200 OK" reply);
  Alcotest.(check bool) "body served" true (contains ~sub:"hello" reply)

let test_oversized_request_line_rejected () =
  let oversized = Metrics.counter "bionav_resilience_oversized_requests_total" in
  let before = Metrics.value oversized in
  let config = { Http.default_server_config with Http.max_request_line = 32 } in
  let reply = exchange ~config ("GET /" ^ String.make 100 'a' ^ " HTTP/1.1\r\n\r\n") in
  Alcotest.(check bool) "400 over the wire" true (contains ~sub:"HTTP/1.1 400" reply);
  Alcotest.(check bool) "reason given" true (contains ~sub:"request too long" reply);
  Alcotest.(check int) "rejection counted" (before + 1) (Metrics.value oversized);
  (* The same line fits under the default bound. *)
  let ok = exchange ("GET /" ^ String.make 100 'a' ^ " HTTP/1.1\r\n\r\n") in
  Alcotest.(check bool) "fits default bound" true (contains ~sub:"HTTP/1.1 200 OK" ok)

let test_truncated_request_times_out () =
  let timeouts = Metrics.counter "bionav_resilience_request_timeouts_total" in
  let before = Metrics.value timeouts in
  let config = { Http.default_server_config with Http.read_timeout_ms = 50. } in
  (* A peer that sends half a request line and then goes silent —
     without shutting down, so only the read deadline ends the wait. *)
  let reply = exchange ~config ~half_close:false "GET /x HT" in
  Alcotest.(check bool) "408 over the wire" true (contains ~sub:"HTTP/1.1 408" reply);
  Alcotest.(check int) "timeout counted" (before + 1) (Metrics.value timeouts)

let test_shed_connection_sends_503 () =
  let shed = Metrics.counter "bionav_resilience_shed_connections_total" in
  let before = Metrics.value shed in
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Http.shed_connection server;
  let reply = read_all client in
  Unix.close client;
  Alcotest.(check bool) "503 over the wire" true (contains ~sub:"HTTP/1.1 503" reply);
  Alcotest.(check bool) "reason given" true (contains ~sub:"Service Unavailable" reply);
  Alcotest.(check int) "shed counted" (before + 1) (Metrics.value shed)

let () =
  Alcotest.run "web"
    [
      ( "html",
        [
          Alcotest.test_case "escape" `Quick test_escape;
          Alcotest.test_case "tag/link" `Quick test_tag_and_link;
          Alcotest.test_case "url encoding" `Quick test_url_encoding;
          Alcotest.test_case "page" `Quick test_page_shape;
        ] );
      ( "http",
        [
          Alcotest.test_case "url decode" `Quick test_url_decode;
          Alcotest.test_case "malformed escapes" `Quick test_url_decode_malformed;
          Alcotest.test_case "plus in path" `Quick test_plus_in_path;
          Alcotest.test_case "repeated keys" `Quick test_repeated_keys;
          Alcotest.test_case "parse target" `Quick test_parse_target;
          Alcotest.test_case "render response" `Quick test_render_response;
          QCheck_alcotest.to_alcotest qcheck_url_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_url_decode_total;
        ] );
      ( "app",
        [
          Alcotest.test_case "home" `Quick test_home;
          Alcotest.test_case "unknown route" `Quick test_unknown_route;
          Alcotest.test_case "search creates session" `Quick test_search_creates_session;
          Alcotest.test_case "search no results" `Quick test_search_no_results;
          Alcotest.test_case "search validation" `Quick test_search_validation;
          Alcotest.test_case "page_size validation" `Quick test_page_size_validation;
          Alcotest.test_case "metrics route" `Quick test_metrics_route;
          Alcotest.test_case "expand/show/back flow" `Quick test_expand_show_back_flow;
          Alcotest.test_case "session validation" `Quick test_session_validation;
          Alcotest.test_case "refine/unrefine flow" `Quick test_refine_unrefine_flow;
          Alcotest.test_case "facets flow" `Quick test_facets_flow;
          Alcotest.test_case "space route validation" `Quick test_space_route_validation;
          Alcotest.test_case "fuzzed handler" `Quick test_handler_never_raises;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip;
          Alcotest.test_case "oversized request line" `Quick test_oversized_request_line_rejected;
          Alcotest.test_case "truncated request times out" `Quick test_truncated_request_times_out;
          Alcotest.test_case "shed connection" `Quick test_shed_connection_sends_503;
        ] );
    ]
