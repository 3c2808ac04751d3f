type counts = { expands : float; shows : float; ignores : float }

let zero = { expands = 0.; shows = 0.; ignores = 0. }

type cell = {
  mutable expands : float;
  mutable shows : float;
  mutable ignores : float;
  mutable stamp_ms : float;
}

type t = {
  half_life_ms : float option;
  cells : (int, cell) Hashtbl.t;
  mutable observations : int;
}

(* Counts decayed this far below one observation are noise from a relevance
   standpoint; flooring them to exactly zero makes "fully decayed" and
   "never observed" indistinguishable — the property the zero-evidence
   equivalence tests pin. *)
let floor_eps = 1e-9

let create ?half_life_ms () =
  (match half_life_ms with
  | Some hl when not (hl > 0.) ->
      invalid_arg (Printf.sprintf "Evidence.create: half_life_ms must be > 0 (got %g)" hl)
  | Some _ | None -> ());
  { half_life_ms; cells = Hashtbl.create 256; observations = 0 }

let half_life_ms t = t.half_life_ms

(* Lazy exponential decay: a cell is only aged when touched, so [observe]
   stays O(1) regardless of how much time passed. *)
let decay_cell t cell ~now_ms =
  (match t.half_life_ms with
  | None -> ()
  | Some hl ->
      let dt = now_ms -. cell.stamp_ms in
      if dt > 0. then begin
        let f = Float.exp (-.Float.log 2. *. dt /. hl) in
        let aged v = if v *. f < floor_eps then 0. else v *. f in
        cell.expands <- aged cell.expands;
        cell.shows <- aged cell.shows;
        cell.ignores <- aged cell.ignores
      end);
  if now_ms > cell.stamp_ms then cell.stamp_ms <- now_ms

let cell_of t ~now_ms concept =
  match Hashtbl.find_opt t.cells concept with
  | Some c ->
      decay_cell t c ~now_ms;
      c
  | None ->
      let c = { expands = 0.; shows = 0.; ignores = 0.; stamp_ms = now_ms } in
      Hashtbl.replace t.cells concept c;
      c

let observe_with t ~now_ms ~concept f =
  f (cell_of t ~now_ms concept);
  t.observations <- t.observations + 1

let observe_expand t ~now_ms ~concept =
  observe_with t ~now_ms ~concept (fun c -> c.expands <- c.expands +. 1.)

let observe_show t ~now_ms ~concept =
  observe_with t ~now_ms ~concept (fun c -> c.shows <- c.shows +. 1.)

let observe_ignore t ~now_ms ~concept =
  observe_with t ~now_ms ~concept (fun c -> c.ignores <- c.ignores +. 1.)

let counts t ~now_ms ~concept =
  match Hashtbl.find_opt t.cells concept with
  | None -> zero
  | Some c ->
      decay_cell t c ~now_ms;
      { expands = c.expands; shows = c.shows; ignores = c.ignores }

let fold t ~now_ms f acc =
  Hashtbl.fold
    (fun concept c acc ->
      decay_cell t c ~now_ms;
      if c.expands = 0. && c.shows = 0. && c.ignores = 0. then acc
      else f concept { expands = c.expands; shows = c.shows; ignores = c.ignores } acc)
    t.cells acc

let observations t = t.observations

let concept_count t ~now_ms = fold t ~now_ms (fun _ _ acc -> acc + 1) 0

let clear t =
  Hashtbl.reset t.cells;
  t.observations <- 0
