type span = {
  id : int;
  group : int;
  parent : int;
  layer : string;
  name : string;
  start_ms : float;
  mutable end_ms : float;
  attributed : bool;
}

type t = { mutable spans : span array; mutable len : int }

let root = -1

let create () =
  let dummy =
    { id = 0; group = 0; parent = root; layer = ""; name = ""; start_ms = 0.; end_ms = 0.;
      attributed = false }
  in
  { spans = Array.make 1024 dummy; len = 0 }

let push t mk =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) t.spans.(0) in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  let id = t.len in
  t.spans.(id) <- mk id;
  t.len <- id + 1;
  id

let add_timed t ~group ~parent ~layer name ~start_ms ~end_ms =
  push t (fun id -> { id; group; parent; layer; name; start_ms; end_ms; attributed = false })

let enter t ~group ~parent ~layer name =
  let now = Kit.now_ms () in
  add_timed t ~group ~parent ~layer name ~start_ms:now ~end_ms:now

let leave t id = t.spans.(id).end_ms <- Kit.now_ms ()

let timed t ~group ~parent ~layer name f =
  let id = enter t ~group ~parent ~layer name in
  Fun.protect ~finally:(fun () -> leave t id) (fun () -> f id)

let attribute t ~parent ~layer name ms =
  if ms <= 0. then -1
  else
    let p = t.spans.(parent) in
    push t (fun id ->
        { id; group = p.group; parent; layer; name; start_ms = p.start_ms;
          end_ms = p.start_ms +. ms; attributed = true })

let duration t id =
  let s = t.spans.(id) in
  s.end_ms -. s.start_ms

let children t =
  let kids = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.spans.(i).parent in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  kids

(* Time of [s] covered by its children: the union of the timed children's
   intervals (clipped to [s]) plus the attributed children's durations. *)
let covered t s kids =
  let timed, attributed = List.partition (fun c -> not t.spans.(c).attributed) kids in
  let attributed_ms = List.fold_left (fun acc c -> acc +. duration t c) 0. attributed in
  let intervals =
    List.sort compare
      (List.map
         (fun c ->
           let cs = t.spans.(c) in
           (Float.max cs.start_ms s.start_ms, Float.min cs.end_ms s.end_ms))
         timed)
  in
  let union, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., Float.neg_infinity) intervals
  in
  union +. attributed_ms

let check t =
  let kids = children t in
  let rec go i =
    if i = t.len then Ok ()
    else
      let total = List.fold_left (fun acc c -> acc +. duration t c) 0. kids.(i) in
      if total > duration t i +. 1e-3 then
        Error
          (Printf.sprintf "span %d (%s/%s, %.4f ms) has children totalling %.4f ms" i
             t.spans.(i).layer t.spans.(i).name (duration t i) total)
      else go (i + 1)
  in
  go 0

type layer_time = { layer : string; self_ms : float; spans : int }

let self_by_layer t =
  let kids = children t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let self = Float.max 0. (duration t i -. covered t s kids.(i)) in
    let ms, n = Option.value (Hashtbl.find_opt tbl s.layer) ~default:(0., 0) in
    Hashtbl.replace tbl s.layer (ms +. self, n + 1)
  done;
  Hashtbl.fold (fun layer (self_ms, spans) acc -> { layer; self_ms; spans } :: acc) tbl []
  |> List.sort (fun a b -> Float.compare b.self_ms a.self_ms)

let layer_total_ms t layer =
  let acc = ref 0. in
  for i = 0 to t.len - 1 do
    if t.spans.(i).layer = layer then acc := !acc +. duration t i
  done;
  !acc

let root_total_ms t =
  let acc = ref 0. in
  for i = 0 to t.len - 1 do
    if t.spans.(i).parent = root then acc := !acc +. duration t i
  done;
  !acc

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.len - 1 do
        let s = t.spans.(i) in
        output_string oc
          (Kit.to_string
             (Kit.Obj
                [ ("id", Kit.Num (float_of_int s.id)); ("group", Kit.Num (float_of_int s.group));
                  ("parent", Kit.Num (float_of_int s.parent)); ("layer", Kit.Str s.layer);
                  ("name", Kit.Str s.name); ("start_ms", Kit.Num s.start_ms);
                  ("end_ms", Kit.Num s.end_ms); ("attributed", Kit.Bool s.attributed) ]));
        output_char oc '\n'
      done)
