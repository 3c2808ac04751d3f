type action = Expand of int | Show_results of int | Backtrack | Refine of int | Unrefine | Facet

type event =
  | Expanded of { concept : int; revealed : int list }
  | Shown of { concept : int; n_listed : int }
  | Backtracked
  | Refined of { concept : int }
  | Unrefined
  | Faceted

let action_of_event = function
  | Expanded { concept; _ } -> Expand concept
  | Shown { concept; _ } -> Show_results concept
  | Backtracked -> Backtrack
  | Refined { concept } -> Refine concept
  | Unrefined -> Unrefine
  | Faceted -> Facet

type t = action list

let header_v2 = "# bionav session transcript v2"
let supported_versions = [ 1; 2 ]

let events_to_string events =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header_v2;
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      (match e with
      | Expanded { concept; revealed } ->
          Buffer.add_string buf
            (Printf.sprintf "expand %d %d%s" concept (List.length revealed)
               (String.concat "" (List.map (Printf.sprintf " %d") revealed)))
      | Shown { concept; n_listed } ->
          Buffer.add_string buf (Printf.sprintf "show %d %d" concept n_listed)
      | Backtracked -> Buffer.add_string buf "backtrack"
      | Refined { concept } -> Buffer.add_string buf (Printf.sprintf "refine %d" concept)
      | Unrefined -> Buffer.add_string buf "unrefine"
      | Faceted -> Buffer.add_string buf "facet");
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

let int_field lineno what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Session_log: line %d: bad %s %S" lineno what s)

let v1_actions = "expand, show, backtrack"
let v2_actions = "expand, show, backtrack, refine, unrefine, facet"

let parse_line_v1 lineno line =
  match String.split_on_char ' ' line with
  | [ "backtrack" ] -> Backtracked
  | [ "expand"; c ] -> Expanded { concept = int_field lineno "concept" c; revealed = [] }
  | [ "show"; c ] -> Shown { concept = int_field lineno "concept" c; n_listed = 0 }
  | _ ->
      invalid_arg
        (Printf.sprintf "Session_log: line %d: unknown v1 action %S (supported: %s)" lineno line
           v1_actions)

(* v2 lines carry the action's outcome: [expand <c> <n> <id>*] lists the
   [n] concepts the EXPAND revealed (the count must match — a truncated
   line is corruption, not a shorter reveal), [show <c> <n>] the number of
   citations listed. *)
let parse_line_v2 lineno line =
  match String.split_on_char ' ' line with
  | [ "backtrack" ] -> Backtracked
  | "expand" :: c :: n :: ids ->
      let concept = int_field lineno "concept" c in
      let n = int_field lineno "reveal count" n in
      let revealed = List.map (int_field lineno "revealed concept") ids in
      if List.length revealed <> n then
        invalid_arg
          (Printf.sprintf "Session_log: line %d: expand lists %d revealed concepts but declares %d"
             lineno (List.length revealed) n);
      Expanded { concept; revealed }
  | [ "show"; c; n ] ->
      Shown
        { concept = int_field lineno "concept" c; n_listed = int_field lineno "listed count" n }
  | [ "refine"; c ] -> Refined { concept = int_field lineno "concept" c }
  | [ "unrefine" ] -> Unrefined
  | [ "facet" ] -> Faceted
  | _ ->
      invalid_arg
        (Printf.sprintf "Session_log: line %d: unknown v2 action %S (supported: %s)" lineno line
           v2_actions)

let version_prefix = "# bionav session transcript v"

let version_of_header lineno line =
  let tail =
    String.sub line (String.length version_prefix)
      (String.length line - String.length version_prefix)
  in
  match int_of_string_opt tail with
  | Some v when List.mem v supported_versions -> v
  | Some _ | None ->
      invalid_arg
        (Printf.sprintf
           "Session_log: line %d: unsupported transcript version %S (supported: %s)" lineno tail
           (String.concat ", " (List.map (Printf.sprintf "v%d") supported_versions)))

(* A transcript declares its version in the header; files with no header
   parse as v1 (the original wire format). A second, conflicting header
   mid-file is corruption (e.g. two transcripts concatenated), not a
   comment. *)
let events_of_string text =
  let version = ref None in
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (lineno, line) ->
         if line = "" then None
         else if String.length line >= String.length version_prefix
                 && String.sub line 0 (String.length version_prefix) = version_prefix then begin
           let v = version_of_header lineno line in
           (match !version with
           | Some seen when seen <> v ->
               invalid_arg
                 (Printf.sprintf
                    "Session_log: line %d: transcript declares v%d after v%d (mixed versions)"
                    lineno v seen)
           | Some _ | None -> version := Some v);
           None
         end
         else if line.[0] = '#' then None
         else
           Some
             (match Option.value !version ~default:1 with
             | 2 -> parse_line_v2 lineno line
             | _ -> parse_line_v1 lineno line))

let of_string text = List.map action_of_event (events_of_string text)

let save_events events path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (events_to_string events))

let load_string path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = of_string (load_string path)
let load_events path = events_of_string (load_string path)

type recorder = { session : Navigation.t; mutable rev_events : event list }

let record session = { session; rev_events = [] }

let concept_of r node = Nav_tree.concept_id (Active_tree.nav (Navigation.active r.session)) node

let expand r node =
  let revealed = Navigation.expand r.session node in
  if revealed <> [] then
    r.rev_events <-
      Expanded { concept = concept_of r node; revealed = List.map (concept_of r) revealed }
      :: r.rev_events;
  revealed

let show_results r node =
  let results = Navigation.show_results r.session node in
  r.rev_events <-
    Shown { concept = concept_of r node; n_listed = Bionav_util.Docset.cardinal results }
    :: r.rev_events;
  results

let backtrack r =
  let ok = Navigation.backtrack r.session in
  if ok then r.rev_events <- Backtracked :: r.rev_events;
  ok

let events r = List.rev r.rev_events
let transcript r = List.map action_of_event (events r)

type replay_outcome = { applied : int; skipped : int; stats : Navigation.stats }

let replay session actions =
  let active = Navigation.active session in
  let nav = Active_tree.nav active in
  let applied = ref 0 and skipped = ref 0 in
  let node_of concept =
    match Nav_tree.node_of_concept nav concept with
    | Some node when Active_tree.is_visible active node -> Some node
    | Some _ | None -> None
  in
  List.iter
    (fun action ->
      let ok =
        match action with
        | Expand concept -> (
            match node_of concept with
            | Some node -> Navigation.expand session node <> []
            | None -> false)
        | Show_results concept -> (
            match node_of concept with
            | Some node ->
                ignore (Navigation.show_results session node);
                true
            | None -> false)
        | Backtrack -> Navigation.backtrack session
        | Refine _ | Unrefine | Facet ->
            (* A [Navigation.t] is a single navigation space; space-changing
               actions replay only at the engine layer, so here they skip. *)
            false
      in
      if ok then incr applied else incr skipped)
    actions;
  { applied = !applied; skipped = !skipped; stats = Navigation.stats session }
