(* Counters and gauges are atomics: a reader on another domain (a bench
   sampling gauges while its server domain runs) sees whole values.
   Histograms are plain single-writer records — every recorder is the
   one domain serving the engine (DESIGN.md §11). The registry itself is
   guarded by one mutex; registration happens at module initialization,
   not on the hot path. *)

type counter = { count : int Atomic.t }

type gauge = { cell : float Atomic.t }

(* [acc] is [| sum; min; max |], flat so updating never allocates a boxed
   float. *)
type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length bounds + 1; the last is the overflow bucket *)
  mutable total : int;
  acc : float array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let default_latency_buckets =
  [|
    0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.;
    2500.; 5000.; 10000.;
  |]

let check_name name =
  let bad c = c = ' ' || c = '"' || c = '{' || c = '}' || c = '\n' in
  if name = "" || String.exists bad name then
    invalid_arg (Printf.sprintf "Metrics: malformed metric name %S" name)

let kind_error name = invalid_arg (Printf.sprintf "Metrics: %S registered as another kind" name)

let find_or_register name f =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
          let m = f () in
          Hashtbl.replace registry name m;
          m)

let counter name =
  check_name name;
  match find_or_register name (fun () -> Counter { count = Atomic.make 0 }) with
  | Counter c -> c
  | Gauge _ | Histogram _ -> kind_error name

let gauge name =
  check_name name;
  match find_or_register name (fun () -> Gauge { cell = Atomic.make 0. }) with
  | Gauge g -> g
  | Counter _ | Histogram _ -> kind_error name

let check_buckets bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty buckets";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: buckets must be strictly increasing"
  done

let histogram ?(buckets = default_latency_buckets) name =
  check_name name;
  match
    find_or_register name (fun () ->
        check_buckets buckets;
        Histogram
          {
            bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            total = 0;
            acc = [| 0.; infinity; neg_infinity |];
          })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ -> kind_error name

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: negative increment";
  ignore (Atomic.fetch_and_add c.count by : int)

let value c = Atomic.get c.count

let set g v = Atomic.set g.cell v

let rec add g delta =
  let old = Atomic.get g.cell in
  if not (Atomic.compare_and_set g.cell old (old +. delta)) then add g delta

let gauge_value g = Atomic.get g.cell

let observe h v =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.total <- h.total + 1;
  h.acc.(0) <- h.acc.(0) +. v;
  if v < h.acc.(1) then h.acc.(1) <- v;
  if v > h.acc.(2) then h.acc.(2) <- v

let count h = h.total

let sum h = h.acc.(0)

let percentile h p =
  let total = count h in
  if total = 0 then 0.
  else begin
    let counts = h.counts in
    let p = Float.max 0. (Float.min 100. p) in
    let rank = p /. 100. *. float_of_int total in
    let n = Array.length h.bounds in
    let rec find i cum =
      let cum' = cum + counts.(i) in
      if float_of_int cum' >= rank || i = n then (i, cum)
      else find (i + 1) cum'
    in
    let i, cum_before = find 0 0 in
    let lo = if i = 0 then 0. else h.bounds.(i - 1) in
    let hi = if i < n then h.bounds.(i) else Float.max lo h.acc.(2) in
    if counts.(i) = 0 then lo
    else begin
      let frac = (rank -. float_of_int cum_before) /. float_of_int counts.(i) in
      lo +. (Float.max 0. (Float.min 1. frac) *. (hi -. lo))
    end
  end

let dump () =
  let entries =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name (value c))
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%s %g\n" name (gauge_value g))
      | Histogram h ->
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name (count h));
          Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" name (sum h));
          List.iter
            (fun (label, p) ->
              Buffer.add_string buf
                (Printf.sprintf "%s{quantile=\"%s\"} %g\n" name label (percentile h p)))
            [ ("0.5", 50.); ("0.95", 95.); ("0.99", 99.) ])
    (List.sort (fun (a, _) (b, _) -> compare a b) entries);
  Buffer.contents buf

let reset () =
  let metrics =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  in
  List.iter
    (fun m ->
      match m with
      | Counter c -> Atomic.set c.count 0
      | Gauge g -> Atomic.set g.cell 0.
      | Histogram h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.total <- 0;
          h.acc.(0) <- 0.;
          h.acc.(1) <- infinity;
          h.acc.(2) <- neg_infinity)
    metrics
