let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* 512 KiB, larger than the caches the engine's working set competes
   for; the kernel never allocates, so the program's garbage collector
   cannot slow it down. *)
let reference_buffer = Array.make 65536 0

let reference_kernel () =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 280_000 do
    x := ((!x * 1103515245) + 12345) land 0xffff;
    let v = Array.unsafe_get reference_buffer !x in
    Array.unsafe_set reference_buffer !x ((v + !acc) land 0xffffff);
    acc := !acc lxor v
  done;
  !acc

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let to_sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

let sum s =
  let acc = ref 0. in
  for i = 0 to s.len - 1 do
    acc := !acc +. s.data.(i)
  done;
  !acc

let mean s = if s.len = 0 then 0. else sum s /. float_of_int s.len

type pct = { value : float; p : float; n : int }

let min_beyond = 10

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then { value = Float.nan; p; n }
  else if n <= min_beyond then { value = sorted.(n - 1); p = 100.; n }
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    if n - rank >= min_beyond then { value = sorted.(rank - 1); p; n }
    else
      let rank = n - min_beyond in
      { value = sorted.(rank - 1); p = 100. *. float_of_int rank /. float_of_int n; n }
  end

type step = { rate : float; passed : bool }

let ladder_max rates probe =
  let rec go best steps = function
    | [] -> (best, List.rev steps)
    | rate :: rest ->
        let passed = probe rate in
        let steps = { rate; passed } :: steps in
        if passed then go (Some rate) steps rest else (best, List.rev steps)
  in
  go None [] (List.sort_uniq Float.compare rates)

let median_of a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let backlog_grew ~limit_ms lat =
  let n = Array.length lat in
  if n < 8 then false
  else
    let q = n / 4 in
    let first = median_of (Array.sub lat 0 q) and last = median_of (Array.sub lat (n - q) q) in
    last -. first > limit_ms /. 2.

let quartiles values =
  match List.sort Float.compare values with
  | [] -> invalid_arg "Kit.quartiles: no values"
  | [ x ] -> (x, x, x)
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      (* statistics.quantiles, method="exclusive": m = n + 1. *)
      let cut j =
        let pos = j * (n + 1) in
        let i = max 1 (min (n - 1) (pos / 4)) in
        let delta = float_of_int (pos - (i * 4)) /. 4. in
        a.(i - 1) +. ((a.(i) -. a.(i - 1)) *. delta)
      in
      (cut 1, cut 2, cut 3)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> num_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) l)
      ^ "}"

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "Kit.parse: %s at offset %d" what !pos) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_char b (Char.chr (code land 0xff))
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            ws ();
            let k = string_lit () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let member k = function Obj l -> Option.value (List.assoc_opt k l) ~default:Null | _ -> Null
