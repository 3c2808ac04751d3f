type entry = {
  orientation : Segment.orientation;
  file : string;
  first_key : int;
  last_key : int;
  n_keys : int;
  n_postings : int;
  bytes : int;
  checksum : int64;
}

type t = {
  n_concepts : int;
  n_citations : int;
  n_associations : int;
  segments : entry list;
}

let filename = "MANIFEST"
let version_line = "BIONAV-SEGSTORE 1"
let fail msg = invalid_arg ("Segstore.manifest: " ^ msg)

let entry_of_summary (s : Segment.summary) =
  {
    orientation = s.Segment.orientation;
    file = Filename.basename s.Segment.path;
    first_key = s.Segment.first_key;
    last_key = s.Segment.last_key;
    n_keys = s.Segment.n_keys;
    n_postings = s.Segment.n_postings;
    bytes = s.Segment.bytes;
    checksum = s.Segment.data_checksum;
  }

let write ~dir t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf version_line;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "n_concepts %d\n" t.n_concepts;
  Printf.bprintf buf "n_citations %d\n" t.n_citations;
  Printf.bprintf buf "n_associations %d\n" t.n_associations;
  List.iter
    (fun e ->
      let o = match e.orientation with Segment.Inverted -> 'I' | Segment.Forward -> 'F' in
      Printf.bprintf buf "segment %c %s %d %d %d %d %d %016Lx\n" o e.file
        e.first_key e.last_key e.n_keys e.n_postings e.bytes e.checksum)
    t.segments;
  Buffer.add_string buf "end\n";
  let tmp = Filename.concat dir (filename ^ ".tmp") in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Buffer.contents buf);
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp (Filename.concat dir filename);
  (* The rename is durable only once the directory entry is. *)
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let int_field what s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | _ -> fail (Printf.sprintf "bad %s %S" what s)

let read ~dir =
  let ic = open_in (Filename.concat dir filename) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line () =
        match In_channel.input_line ic with
        | Some l -> l
        | None -> fail "truncated manifest"
      in
      if line () <> version_line then fail "bad version line";
      let count name =
        match String.split_on_char ' ' (line ()) with
        | [ n; v ] when n = name -> int_field name v
        | _ -> fail (Printf.sprintf "expected %s line" name)
      in
      let n_concepts = count "n_concepts" in
      let n_citations = count "n_citations" in
      let n_associations = count "n_associations" in
      let segments = ref [] in
      let rec loop () =
        match String.split_on_char ' ' (line ()) with
        | [ "end" ] -> ()
        | [ "segment"; o; file; first; last; keys; postings; bytes; sum ] ->
            let orientation =
              match o with
              | "I" -> Segment.Inverted
              | "F" -> Segment.Forward
              | _ -> fail (Printf.sprintf "bad orientation %S" o)
            in
            if Filename.basename file <> file || file = "" then
              fail (Printf.sprintf "bad segment file %S" file)
            else begin
              let checksum =
                try Scanf.sscanf sum "%Lx%!" Fun.id
                with Scanf.Scan_failure _ | Failure _ | End_of_file ->
                  fail (Printf.sprintf "bad checksum %S" sum)
              in
              segments :=
                {
                  orientation;
                  file;
                  first_key = int_field "first_key" first;
                  last_key = int_field "last_key" last;
                  n_keys = int_field "n_keys" keys;
                  n_postings = int_field "n_postings" postings;
                  bytes = int_field "bytes" bytes;
                  checksum;
                }
                :: !segments;
              loop ()
            end
        | _ -> fail "malformed segment line"
      in
      loop ();
      { n_concepts; n_citations; n_associations; segments = List.rev !segments })
