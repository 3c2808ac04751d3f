open Bionav_util
open Bionav_core
module SL = Session_log

let nav () =
  let parent = [| -1; 0; 1; 1; 0; 4 |] in
  let h = Bionav_mesh.Hierarchy.of_parents parent in
  let attachments =
    List.init 5 (fun i ->
        let node = i + 1 in
        (node, Docset.of_list (List.init 15 (fun j -> (node * 20) + j))))
  in
  Nav_tree.build ~hierarchy:h ~attachments ~total_count:(fun _ -> 400)

(* v1 is read-only, so its reader is checked on literal v1 text. *)
let test_text_roundtrip () =
  let t = [ SL.Expand 3; SL.Show_results 7; SL.Backtrack; SL.Expand 1 ] in
  let text = "# bionav session transcript v1\nexpand 3\nshow 7\nbacktrack\nexpand 1\n" in
  Alcotest.(check bool) "roundtrip" true (SL.of_string text = t)

let test_parse_tolerates_comments () =
  let t = SL.of_string "# hello\n\nexpand 4\n  show 2  \n" in
  Alcotest.(check bool) "parsed" true (t = [ SL.Expand 4; SL.Show_results 2 ])

let test_parse_rejects_garbage () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (try
           ignore (SL.of_string text);
           false
         with Invalid_argument _ -> true))
    [ "explode 3\n"; "expand x\n"; "show\n"; "expand 1 2\n" ]

let test_recording_produces_replayable_transcript () =
  let session = Navigation.start Navigation.Static (nav ()) in
  let r = SL.record session in
  ignore (SL.expand r 0);
  ignore (SL.expand r 1);
  ignore (SL.show_results r 2);
  let t = SL.transcript r in
  Alcotest.(check int) "three actions" 3 (List.length t);
  (* Replay on a fresh session over the same tree applies everything. *)
  let session2 = Navigation.start Navigation.Static (nav ()) in
  let outcome = SL.replay session2 t in
  Alcotest.(check int) "all applied" 3 outcome.SL.applied;
  Alcotest.(check int) "none skipped" 0 outcome.SL.skipped;
  Alcotest.(check int) "same cost" (Navigation.total_cost (Navigation.stats session))
    (Navigation.total_cost outcome.SL.stats)

let test_noop_actions_not_recorded () =
  let session = Navigation.start Navigation.Static (nav ()) in
  let r = SL.record session in
  Alcotest.(check bool) "failed backtrack" false (SL.backtrack r);
  ignore (SL.expand r 0);
  ignore (SL.expand r 0);
  (* second expand of the singleton upper is a no-op *)
  Alcotest.(check int) "only real actions" 1 (List.length (SL.transcript r))

let test_replay_skips_inapplicable () =
  let t = [ SL.Expand 0; SL.Expand 9999; SL.Show_results 5; SL.Backtrack; SL.Backtrack ] in
  let session = Navigation.start Navigation.Static (nav ()) in
  let outcome = SL.replay session t in
  (* expand root: ok; concept 9999: skip; show 5 (hidden after root expand?
     node for concept 5 is visible only if the cut revealed it). *)
  Alcotest.(check int) "total accounted" 5 (outcome.SL.applied + outcome.SL.skipped);
  Alcotest.(check bool) "some skipped" true (outcome.SL.skipped >= 1)

let test_replay_across_strategies () =
  (* Record a BioNav session, replay on a static session: actions address
     concepts, so whatever is visible still applies. *)
  let s1 = Navigation.start (Navigation.bionav ()) (nav ()) in
  let r = SL.record s1 in
  ignore (SL.expand r 0);
  let t = SL.transcript r in
  let s2 = Navigation.start Navigation.Static (nav ()) in
  let outcome = SL.replay s2 t in
  Alcotest.(check int) "root expand applies" 1 outcome.SL.applied

let test_save_load () =
  let t = [ SL.Expand 1; SL.Backtrack ] in
  let path = Filename.temp_file "bionav_session" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "# bionav session transcript v1\nexpand 1\nbacktrack\n");
      Alcotest.(check bool) "roundtrip" true (SL.load path = t))

(* --- transcript v2 ------------------------------------------------------- *)

let sample_events =
  [
    SL.Expanded { concept = 0; revealed = [ 1; 4 ] };
    SL.Expanded { concept = 1; revealed = [] };
    SL.Shown { concept = 4; n_listed = 15 };
    SL.Backtracked;
  ]

let test_v2_roundtrip () =
  let text = SL.events_to_string sample_events in
  Alcotest.(check bool) "v2 header" true
    (String.length text > 30 && String.sub text 0 30 = "# bionav session transcript v2");
  Alcotest.(check bool) "events roundtrip" true (SL.events_of_string text = sample_events);
  (* The action view of a v2 transcript drops outcomes but keeps order. *)
  Alcotest.(check bool) "action view" true
    (SL.of_string text = [ SL.Expand 0; SL.Expand 1; SL.Show_results 4; SL.Backtrack ])

let test_v1_still_parses () =
  (* Headerless and v1-headered files are the original wire format. *)
  let expected = [ SL.Expand 3; SL.Show_results 7; SL.Backtrack ] in
  List.iter
    (fun text -> Alcotest.(check bool) text true (SL.of_string text = expected))
    [
      "expand 3\nshow 7\nbacktrack\n";
      "# bionav session transcript v1\nexpand 3\nshow 7\nbacktrack\n";
    ];
  (* v1 events surface empty outcomes rather than failing. *)
  Alcotest.(check bool) "v1 events" true
    (SL.events_of_string "expand 3\n" = [ SL.Expanded { concept = 3; revealed = [] } ])

let test_unknown_version_names_supported () =
  match SL.events_of_string "# bionav session transcript v9\nexpand 1 0\n" with
  | _ -> Alcotest.fail "v9 accepted"
  | exception Invalid_argument msg ->
      let has needle =
        let n = String.length needle in
        let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names supported versions" true (has "v1" && has "v2");
      Alcotest.(check bool) "says unsupported" true (has "unsupported")

let test_v2_corruption_rejected () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (try
           ignore (SL.events_of_string text);
           false
         with Invalid_argument _ -> true))
    [
      (* truncated reveal list: declares 3, carries 2 *)
      "# bionav session transcript v2\nexpand 0 3 1 4\n";
      (* overlong reveal list *)
      "# bionav session transcript v2\nexpand 0 1 1 4\n";
      (* bad ids *)
      "# bionav session transcript v2\nexpand x 0\n";
      "# bionav session transcript v2\nshow 4 many\n";
      (* v2 show without its outcome field is a v1 line in a v2 file *)
      "# bionav session transcript v2\nshow 4\n";
      (* conflicting headers: two transcripts concatenated *)
      "# bionav session transcript v1\nexpand 3\n# bionav session transcript v2\nexpand 0 0\n";
      "# bionav session transcript v2\nexpand 0 0\n# bionav session transcript v1\nexpand 3\n";
    ]

let test_recorder_events_carry_outcomes () =
  let session = Navigation.start Navigation.Static (nav ()) in
  let r = SL.record session in
  let revealed = SL.expand r 0 in
  let results = SL.show_results r (List.hd revealed) in
  match SL.events r with
  | [ SL.Expanded { concept = 0; revealed = rv }; SL.Shown { n_listed; _ } ] ->
      Alcotest.(check int) "reveal arity" (List.length revealed) (List.length rv);
      Alcotest.(check bool) "real concepts" true (List.for_all (fun c -> c >= 0) rv);
      Alcotest.(check int) "listed citations" (Docset.cardinal results) n_listed;
      Alcotest.(check bool) "nonempty listing" true (n_listed > 0)
  | _ -> Alcotest.fail "unexpected event shape"

(* --- navigation-space actions (v2) --------------------------------------- *)

let has_sub msg needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let space_events =
  [
    SL.Expanded { concept = 0; revealed = [ 1; 4 ] };
    SL.Refined { concept = 4 };
    SL.Faceted;
    SL.Unrefined;
    SL.Unrefined;
    SL.Shown { concept = 1; n_listed = 15 };
  ]

let test_space_events_roundtrip () =
  let text = SL.events_to_string space_events in
  (* Space-changing actions ride in the existing v2 wire format — no
     version bump. *)
  Alcotest.(check bool) "still v2" true
    (String.sub text 0 30 = "# bionav session transcript v2");
  Alcotest.(check bool) "events roundtrip" true (SL.events_of_string text = space_events);
  Alcotest.(check bool) "action view" true
    (SL.of_string text
    = [ SL.Expand 0; SL.Refine 4; SL.Facet; SL.Unrefine; SL.Unrefine; SL.Show_results 1 ])

let test_v1_reader_rejects_space_lines_loudly () =
  (* A refine line in a v1 (headerless) transcript is an unknown action;
     the error must name the v1-supported set so the reader knows the line
     is from a newer writer, not garbage. *)
  match SL.events_of_string "expand 3\nrefine 4\n" with
  | _ -> Alcotest.fail "v1 reader accepted refine"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the supported set" true
        (has_sub msg "expand, show, backtrack");
      Alcotest.(check bool) "does not claim refine supported" true
        (not (has_sub msg "refine,"))

let test_v2_unknown_action_names_supported_set () =
  match SL.events_of_string "# bionav session transcript v2\npivot 3\n" with
  | _ -> Alcotest.fail "unknown v2 action accepted"
  | exception Invalid_argument msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (has_sub msg needle))
        [ "expand"; "show"; "backtrack"; "refine"; "unrefine"; "facet" ]

let test_v2_malformed_space_lines_rejected () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (try
           ignore (SL.events_of_string text);
           false
         with Invalid_argument _ -> true))
    [
      "# bionav session transcript v2\nrefine\n";
      "# bionav session transcript v2\nrefine x\n";
      "# bionav session transcript v2\nunrefine 3\n";
      "# bionav session transcript v2\nfacet 1\n";
    ]

let test_replay_skips_space_actions () =
  (* [replay] acts on one [Navigation.t] — a single space — so refine,
     unrefine and facet must skip (counted), never misapply. *)
  let t = [ SL.Expand 0; SL.Refine 1; SL.Facet; SL.Unrefine ] in
  let session = Navigation.start Navigation.Static (nav ()) in
  let outcome = SL.replay session t in
  Alcotest.(check int) "expand applied" 1 outcome.SL.applied;
  Alcotest.(check int) "space actions skipped" 3 outcome.SL.skipped

let test_save_load_events () =
  let path = Filename.temp_file "bionav_session" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      SL.save_events sample_events path;
      Alcotest.(check bool) "roundtrip" true (SL.load_events path = sample_events);
      (* The v1 action loader reads v2 files too. *)
      Alcotest.(check bool) "action view" true
        (SL.load path = List.map SL.action_of_event sample_events))

let () =
  Alcotest.run "session_log"
    [
      ( "unit",
        [
          Alcotest.test_case "text roundtrip" `Quick test_text_roundtrip;
          Alcotest.test_case "comments" `Quick test_parse_tolerates_comments;
          Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "record/replay" `Quick test_recording_produces_replayable_transcript;
          Alcotest.test_case "noop not recorded" `Quick test_noop_actions_not_recorded;
          Alcotest.test_case "replay skips" `Quick test_replay_skips_inapplicable;
          Alcotest.test_case "across strategies" `Quick test_replay_across_strategies;
          Alcotest.test_case "save/load" `Quick test_save_load;
        ] );
      ( "v2",
        [
          Alcotest.test_case "roundtrip" `Quick test_v2_roundtrip;
          Alcotest.test_case "v1 still parses" `Quick test_v1_still_parses;
          Alcotest.test_case "unknown version" `Quick test_unknown_version_names_supported;
          Alcotest.test_case "corruption rejected" `Quick test_v2_corruption_rejected;
          Alcotest.test_case "recorder outcomes" `Quick test_recorder_events_carry_outcomes;
          Alcotest.test_case "save/load events" `Quick test_save_load_events;
        ] );
      ( "spaces",
        [
          Alcotest.test_case "space events roundtrip" `Quick test_space_events_roundtrip;
          Alcotest.test_case "v1 reader fails loudly" `Quick
            test_v1_reader_rejects_space_lines_loudly;
          Alcotest.test_case "v2 unknown action names set" `Quick
            test_v2_unknown_action_names_supported_set;
          Alcotest.test_case "v2 malformed space lines" `Quick
            test_v2_malformed_space_lines_rejected;
          Alcotest.test_case "replay skips space actions" `Quick
            test_replay_skips_space_actions;
        ] );
    ]
