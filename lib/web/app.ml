open Bionav_util
module Engine = Bionav_engine.Engine
module Nav_snapshot = Bionav_search.Nav_snapshot
module Eutils = Bionav_search.Eutils

type t = { engine : Engine.t; suggestions : string list }

let create ?(suggestions = []) ?config ?snapshot ~database ~eutils () =
  { engine = Engine.create ?config ?snapshot ~database ~eutils (); suggestions }

let session_count t = Engine.session_count t.engine
let engine t = t.engine

let results_page_size = 20

(* --- rendering -------------------------------------------------------- *)

let home t =
  let suggestions =
    match t.suggestions with
    | [] -> ""
    | qs ->
        Html.tag "p"
          (Html.text "Try: "
          ^ String.concat ", "
              (List.map (fun q -> Html.link ~href:(Html.url "/search" [ ("q", q) ]) q) qs))
  in
  Http.ok
    (Html.page ~title:"BioNav"
       (Html.tag "h1" (Html.text "BioNav")
       ^ Html.tag "p"
           (Html.text
              "Search the corpus, then navigate the results through cost-optimized \
               expansions of the concept hierarchy.")
       ^ "<form action=\"/search\" method=\"get\">\
          <input name=\"q\" size=\"40\" placeholder=\"keyword query\">\
          <select name=\"strategy\">\
          <option value=\"bionav\">BioNav</option>\
          <option value=\"static\">Static</option>\
          <option value=\"paged\">Paged</option>\
          <option value=\"faceted\">Faceted (qualifiers)</option>\
          </select>\
          <button type=\"submit\">Search</button></form>"
       ^ suggestions))

(* Render entirely from the session's snapshot: no engine operation runs,
   and the page is a consistent view of one epoch. *)
let render_tree ~sid snap =
  let rec render_node (v : Nav_snapshot.vnode) =
    let expand_link =
      if v.Nav_snapshot.expandable then
        " "
        ^ Html.tag ~attrs:
            [ ("class", "expand");
              ("href",
               Html.url "/expand" [ ("sid", sid); ("node", string_of_int v.Nav_snapshot.id) ]) ]
            "a" "&gt;&gt;&gt;"
      else ""
    in
    let show_link =
      " "
      ^ Html.link
          ~href:(Html.url "/show" [ ("sid", sid); ("node", string_of_int v.Nav_snapshot.id) ])
          "[show]"
    in
    let refine_link =
      if v.Nav_snapshot.id = Nav_snapshot.root snap then ""
      else
        " "
        ^ Html.link
            ~href:
              (Html.url "/refine" [ ("sid", sid); ("node", string_of_int v.Nav_snapshot.id) ])
            "[refine]"
    in
    Html.tag "li"
      (Html.text v.Nav_snapshot.label
      ^ Html.tag ~attrs:[ ("class", "count") ] "span"
          (Printf.sprintf " (%d)" v.Nav_snapshot.distinct)
      ^ expand_link ^ show_link ^ refine_link
      ^
      match v.Nav_snapshot.children with
      | [] -> ""
      | children ->
          Html.tag "ul"
            (String.concat ""
               (List.map (fun c -> render_node (Nav_snapshot.get snap c)) children)))
  in
  let stats = Nav_snapshot.stats snap in
  let depth = Nav_snapshot.refine_depth snap in
  let unrefine_link =
    if depth > 0 then
      " " ^ Html.link ~href:(Html.url "/unrefine" [ ("sid", sid) ]) "[undo refine]"
    else ""
  in
  Html.tag ~attrs:[ ("class", "bar") ] "div"
    (Html.text (Printf.sprintf "query: %s — " (Nav_snapshot.query snap))
    ^ Html.text
        (Printf.sprintf "%d results, cost so far %d (%d EXPANDs, %d concepts)"
           (Nav_snapshot.distinct_results snap)
           (Bionav_core.Navigation.navigation_cost stats)
           stats.Bionav_core.Navigation.expands stats.Bionav_core.Navigation.revealed)
    ^ Html.tag ~attrs:[ ("class", "space") ] "span"
        (Html.text
           (Printf.sprintf " — space: %s (depth %d)" (Nav_snapshot.space snap) depth))
    ^ " " ^ Html.link ~href:(Html.url "/back" [ ("sid", sid) ]) "[backtrack]"
    ^ " " ^ Html.link ~href:(Html.url "/facets" [ ("sid", sid) ]) "[facets]"
    ^ unrefine_link
    ^ " " ^ Html.link ~href:"/" "[new search]")
  ^ Html.tag "ul" (render_node (Nav_snapshot.get snap (Nav_snapshot.root snap)))

let session_page s =
  let snap = Engine.snapshot s in
  Http.ok
    (Html.page ~title:("BioNav: " ^ Nav_snapshot.query snap)
       (render_tree ~sid:(Engine.session_id s) snap))

(* --- parameter helpers ------------------------------------------------- *)

let param query name = List.assoc_opt name query

(* Look the session up (which also refreshes recency) and hand it to
   [f]: read routes work off the snapshot, mutating routes go through
   the [Engine] actions. *)
let with_session t query f =
  match param query "sid" with
  | None -> Http.bad_request "missing sid"
  | Some sid -> (
      match Engine.find_session t.engine sid with
      | None -> Http.not_found "no such session"
      | Some s -> f s)

(* Validate the node against the snapshot the route will act on. A stale
   snapshot is caught by the action itself (Navigation raises on a
   no-longer-visible node). *)
let with_visible_node snap query f =
  match Option.bind (param query "node") int_of_string_opt with
  | None -> Http.bad_request "missing or malformed node"
  | Some node ->
      if node < 0 || node >= Bionav_core.Nav_tree.size (Nav_snapshot.nav snap) then
        Http.bad_request "node out of range"
      else (
        match Nav_snapshot.find snap node with
        | None -> Http.bad_request "node not visible"
        | Some v -> f node v)

(* --- routes ------------------------------------------------------------ *)

let search t query =
  match param query "q" with
  | None | Some "" -> Http.bad_request "missing query"
  | Some q -> (
      let page_size = Option.bind (param query "page_size") int_of_string_opt in
      if param query "page_size" <> None && page_size = None then
        Http.bad_request "malformed page_size"
      else
        match Engine.strategy_of_name ?page_size (param query "strategy") with
        | Error msg -> Http.bad_request msg
        | Ok strategy -> (
            match Engine.search t.engine ~strategy q with
            | Error msg -> Http.bad_request msg
            | Ok Engine.No_results ->
                Http.ok
                  (Html.page ~title:"BioNav"
                     (Html.tag "p" (Html.text (Printf.sprintf "No results for %S." q))
                     ^ Html.link ~href:"/" "back"))
            | Ok (Engine.Session s) -> session_page s))

let expand t query =
  with_session t query (fun s ->
      with_visible_node (Engine.snapshot s) query (fun node _v ->
          match Engine.expand s node with
          | (_ : int list) -> session_page s
          | exception Invalid_argument _ -> Http.bad_request "node not visible"))

let back t query =
  with_session t query (fun s ->
      ignore (Engine.backtrack s : bool);
      session_page s)

(* Query-by-navigation: narrow the session to the node's subtree results
   and re-derive the tree inside the same session. The engine validates
   visibility again, so a stale node degrades to a clean 400 rather than
   a torn refinement. *)
let refine t query =
  with_session t query (fun s ->
      with_visible_node (Engine.snapshot s) query (fun node _v ->
          match Engine.refine s node with
          | (_ : int) -> session_page s
          | exception Invalid_argument msg -> Http.bad_request msg))

let unrefine t query =
  with_session t query (fun s ->
      ignore (Engine.unrefine s : bool);
      session_page s)

let facets t query =
  with_session t query (fun s ->
      match Engine.facet s with
      | (_ : int) -> session_page s
      | exception Invalid_argument msg -> Http.bad_request msg)

let citation_items t citations =
  Docset.fold
    (fun id acc ->
      Html.tag ~attrs:[ ("class", "citation") ] "div"
        (Html.text (List.hd (Eutils.esummary (Engine.eutils t.engine) [ id ])))
    :: acc)
    citations []

let show_page_links ~sid ~node ~page ~pages =
  let link p label =
    Html.link
      ~href:
        (Html.url "/show"
           [ ("sid", sid); ("node", string_of_int node); ("page", string_of_int p) ])
      label
  in
  String.concat " "
    ((if page > 0 then [ link (page - 1) "[prev]" ] else [])
    @ [ Html.text (Printf.sprintf "page %d of %d" (page + 1) (max 1 pages)) ]
    @ (if page + 1 < pages then [ link (page + 1) "[next]" ] else []))

(* SHOWRESULTS. Without [page]: the paper's action — charge the cost,
   list every citation (a mutation, so it goes through the engine and
   replaces the snapshot). With [page=N] (0-based): a paged read of the
   snapshot's component results — browsing pages costs neither an
   engine operation nor SHOWRESULTS charges. *)
let show t query =
  with_session t query (fun s ->
      let snap = Engine.snapshot s in
      with_visible_node snap query (fun node v ->
          let sid = Engine.session_id s in
          let page = Option.bind (param query "page") int_of_string_opt in
          if param query "page" <> None && page = None then
            Http.bad_request "malformed page"
          else
            match page with
            | Some p when p < 0 -> Http.bad_request "page out of range"
            | Some p ->
                let all = Docset.to_array v.Nav_snapshot.results in
                let total = Array.length all in
                let pages = (total + results_page_size - 1) / results_page_size in
                let from = p * results_page_size in
                let slice =
                  if from >= total then [||]
                  else Array.sub all from (min results_page_size (total - from))
                in
                let items =
                  List.rev
                    (citation_items t (Docset.of_sorted_array_unchecked slice))
                in
                Http.ok
                  (Html.page
                     ~title:(Printf.sprintf "BioNav: %s" v.Nav_snapshot.label)
                     (Html.tag "h2"
                        (Html.text
                           (Printf.sprintf "%s — %d citations" v.Nav_snapshot.label total))
                     ^ Html.link ~href:(Html.url "/session" [ ("sid", sid) ]) "[back to tree]"
                     ^ Html.tag ~attrs:[ ("class", "pager") ] "div"
                         (show_page_links ~sid ~node ~page:p ~pages)
                     ^ String.concat "" items))
            | None -> (
                match Engine.show_results s node with
                | exception Invalid_argument _ -> Http.bad_request "node not visible"
                | citations ->
                    (* The docset lives in the live arena; iterating it
                       is a pure read, done before the next engine
                       operation. *)
                    let items = citation_items t citations in
                    Http.ok
                      (Html.page
                         ~title:(Printf.sprintf "BioNav: %s" v.Nav_snapshot.label)
                         (Html.tag "h2"
                            (Html.text
                               (Printf.sprintf "%s — %d citations" v.Nav_snapshot.label
                                  (Docset.cardinal citations)))
                         ^ Html.link
                             ~href:(Html.url "/session" [ ("sid", sid) ])
                             "[back to tree]"
                         ^ Html.tag ~attrs:[ ("class", "pager") ] "div"
                             (show_page_links ~sid ~node ~page:0
                                ~pages:
                                  ((Docset.cardinal citations + results_page_size - 1)
                                  / results_page_size))
                         ^ String.concat "" (List.rev items))))))

let metrics t =
  Http.ok ~content_type:"text/plain; charset=utf-8" (Engine.metrics_text t.engine)

let prefetch_status t =
  let body =
    match Engine.prefetch t.engine with
    | None -> "prefetch: disabled\n"
    | Some pf ->
        let plans = Bionav_prefetch.Prefetch.plans pf in
        let module P = Bionav_prefetch.Plan_cache in
        Printf.sprintf
          "prefetch: enabled\n\
           plans_cached: %d\n\
           plan_hits: %d\n\
           plan_misses: %d\n\
           plan_hit_rate: %.3f\n"
          (P.length plans) (P.hits plans) (P.misses plans)
          (Engine.plan_cache_hit_rate t.engine)
  in
  Http.ok ~content_type:"text/plain; charset=utf-8" body

let adaptive_status t =
  let body =
    match Engine.adaptive t.engine with
    | None -> "adaptive: disabled (static paper model)\n"
    | Some ad -> "adaptive: enabled\n" ^ Bionav_adaptive.Adaptive.status_text ad
  in
  Http.ok ~content_type:"text/plain; charset=utf-8" body

(* Constant-work liveness probe: no session lookup, no rendering —
   cheap enough that the serve bench can use it to measure pure
   serving-tier overhead, and load balancers can poll it without
   perturbing the engine. *)
let healthz t =
  Http.ok ~content_type:"text/plain; charset=utf-8"
    (Printf.sprintf "ok sessions=%d\n" (Engine.session_count t.engine))

let handle t ~path ~query =
  match path with
  | "/" -> home t
  | "/search" -> search t query
  | "/session" -> with_session t query session_page
  | "/expand" -> expand t query
  | "/back" -> back t query
  | "/show" -> show t query
  | "/refine" -> refine t query
  | "/unrefine" -> unrefine t query
  | "/facets" -> facets t query
  | "/metrics" -> metrics t
  | "/prefetch" -> prefetch_status t
  | "/adaptive" -> adaptive_status t
  | "/healthz" -> healthz t
  | _ -> Http.not_found "no such page"
