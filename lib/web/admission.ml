module Clock = Bionav_resilience.Clock
module Metrics = Bionav_util.Metrics

let shed_rate_limited_total = "bionav_serve_shed_rate_limited_total"
let shed_counter = Metrics.counter shed_rate_limited_total

type config = { rate : float; burst : int }

let default_config = { rate = 0.; burst = 64 }

let validate_config c =
  if c.rate < 0. then invalid_arg "Admission: rate must be >= 0";
  if c.burst < 1 then invalid_arg "Admission: burst must be >= 1"

type bucket = { mutable tokens : float; mutable last_ms : float }

type t = {
  clock : Clock.t;
  config : config;
  buckets : (string, bucket) Hashtbl.t;
}

type decision = Admit | Shed_rate_limited

let create ?(clock = Clock.real) config =
  validate_config config;
  { clock; config; buckets = Hashtbl.create 64 }

(* The bucket table is peer-keyed and unauthenticated input names the
   keys, so bound it: once it outgrows the cap, drop every bucket that
   has refilled to burst — those peers are indistinguishable from new
   ones anyway. *)
let max_buckets = 8192

let sweep_full t =
  if Hashtbl.length t.buckets > max_buckets then begin
    let full =
      Hashtbl.fold
        (fun peer b acc ->
          if b.tokens >= float_of_int t.config.burst then peer :: acc else acc)
        t.buckets []
    in
    List.iter (Hashtbl.remove t.buckets) full
  end

let refill t b ~now =
  let burst = float_of_int t.config.burst in
  let dt = max 0. (now -. b.last_ms) in
  b.tokens <- Float.min burst (b.tokens +. (dt /. 1000.) *. t.config.rate);
  b.last_ms <- now

let bucket_for t peer ~now =
  match Hashtbl.find_opt t.buckets peer with
  | Some b -> refill t b ~now; b
  | None ->
      sweep_full t;
      let b = { tokens = float_of_int t.config.burst; last_ms = now } in
      Hashtbl.add t.buckets peer b;
      b

let admit t ~peer =
  if t.config.rate <= 0. then Admit
  else begin
    let now = Clock.now_ms t.clock in
    let b = bucket_for t peer ~now in
    if b.tokens >= 1. then begin
      b.tokens <- b.tokens -. 1.;
      Admit
    end
    else begin
      Metrics.incr shed_counter;
      Shed_rate_limited
    end
  end

let peek_tokens t ~peer =
  if t.config.rate <= 0. then float_of_int t.config.burst
  else begin
    let now = Clock.now_ms t.clock in
    let b = bucket_for t peer ~now in
    b.tokens
  end
