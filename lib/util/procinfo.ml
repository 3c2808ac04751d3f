(* "VmHWM:     12345 kB" — the kernel reports kilobytes. *)
let parse_vmhwm line =
  let prefix = "VmHWM:" in
  let plen = String.length prefix in
  if String.length line > plen && String.sub line 0 plen = prefix then
    let rest = String.trim (String.sub line plen (String.length line - plen)) in
    match String.split_on_char ' ' rest with
    | kb :: _ -> Option.map (fun v -> v * 1024) (int_of_string_opt kb)
    | [] -> None
  else None

let read_proc_status () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some line -> ( match parse_vmhwm line with Some v -> Some v | None -> scan ())
          in
          scan ())

(* The OCaml heap's own high-water mark: undercounts mmap'd and malloc'd
   memory but is available everywhere and stays monotone. *)
let gc_peak_bytes () = Gc.((quick_stat ()).top_heap_words) * (Sys.word_size / 8)

(* Decided once: if /proc/self/status yields a VmHWM at first call, it
   will keep doing so for the process lifetime. An Atomic, not a lazy:
   this is process-wide state that any domain may read (benches call it
   outside the engine), and forcing one lazy from two domains raises
   CamlinternalLazy.Undefined. Racing first calls compute the same
   answer. *)
let chosen_source = Atomic.make None

let source () =
  match Atomic.get chosen_source with
  | Some s -> s
  | None ->
      let s = match read_proc_status () with Some _ -> `Proc_status | None -> `Gc_heap in
      Atomic.set chosen_source (Some s);
      s

(* The largest figure read so far: VmHWM is the larger of a mark the
   kernel updates lazily and the current RSS, so it can fall, as can the
   heap fallback after a failed read. *)
let highest = Atomic.make 0

let peak_rss_bytes () =
  let v =
    match source () with
    | `Proc_status -> Option.value (read_proc_status ()) ~default:(gc_peak_bytes ())
    | `Gc_heap -> gc_peak_bytes ()
  in
  let rec raise_to () =
    let p = Atomic.get highest in
    if v <= p || Atomic.compare_and_set highest p v then max p v else raise_to ()
  in
  raise_to ()

let peak_rss_gauge = Metrics.gauge "bionav_process_peak_rss_bytes"
let publish () = Metrics.set peak_rss_gauge (float_of_int (peak_rss_bytes ()))
