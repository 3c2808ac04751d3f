type params = {
  upper_threshold : int;
  lower_threshold : int;
  expand_cost : float;
  future_fanout : int;
}

let default_params =
  { upper_threshold = 50; lower_threshold = 10; expand_cost = 16.0; future_fanout = 10 }

let validate_params p =
  if p.lower_threshold < 0 then
    invalid_arg
      (Printf.sprintf "Probability.params: lower_threshold must be >= 0 (got %d)"
         p.lower_threshold);
  if p.upper_threshold < p.lower_threshold then
    invalid_arg
      (Printf.sprintf
         "Probability.params: upper_threshold %d is below lower_threshold %d"
         p.upper_threshold p.lower_threshold);
  if not (p.expand_cost > 0.) then
    invalid_arg
      (Printf.sprintf "Probability.params: expand_cost must be > 0 (got %g)" p.expand_cost);
  if p.future_fanout < 2 then
    invalid_arg
      (Printf.sprintf "Probability.params: future_fanout must be >= 2 (got %d)"
         p.future_fanout)

let params_fingerprint p =
  Printf.sprintf "%d/%d/%g/%d" p.upper_threshold p.lower_threshold p.expand_cost
    p.future_fanout

let explore_weight t i =
  let l = Comp_tree.result_count t i in
  if l = 0 then 0. else float_of_int l /. float_of_int (Comp_tree.total t i)

let epsilon = 1e-12

let normalizer t =
  let acc = ref 0. in
  for i = 0 to Comp_tree.size t - 1 do
    acc := !acc +. explore_weight t i
  done;
  max epsilon !acc

let explore ~norm t members =
  let w = List.fold_left (fun acc i -> acc +. explore_weight t i) 0. members in
  Float.min 1.0 (w /. max epsilon norm)

let underlying_count t members =
  List.fold_left (fun acc i -> acc + Comp_tree.multiplicity t i) 0 members

let expand params t ~members ~distinct =
  if members = [] then invalid_arg "Probability.expand: empty component";
  if underlying_count t members <= 1 then 0.
  else if distinct > params.upper_threshold then 1.0
  else if distinct < params.lower_threshold then 0.0
  else begin
    (* Normalized entropy of the per-concept citation mass over the
       underlying concepts. The p_i use the distinct count as denominator,
       so duplicates can push the raw entropy above the uniform no-duplicate
       maximum; clamp per the paper. *)
    let n_positive = ref 0 in
    let h = ref 0. in
    let visit w =
      if w > 0. then begin
        incr n_positive;
        let p = w /. float_of_int (max 1 distinct) in
        (* A concept holding every distinct citation has p >= 1; its
           -p log p term is <= 0 and is dropped. *)
        if p < 1.0 then h := !h -. (p *. log p)
      end
    in
    List.iter (fun i -> Comp_tree.iter_sub_weights t i visit) members;
    if !n_positive < 2 then 0.
    else begin
      let hmax = log (float_of_int !n_positive) in
      if hmax <= 0. then 0. else Float.max 0. (Float.min 1.0 (!h /. hmax))
    end
  end

let future_drilldown_cost params m =
  if m <= 1 then 0.
  else
    let k = float_of_int (max 2 params.future_fanout) in
    (k +. 1.) *. (log (float_of_int m) /. log k)

(* --- pluggable models --------------------------------------------------- *)

type model = {
  params : params;
  fingerprint : string;
  normalizer : Comp_tree.t -> float;
  explore : norm:float -> Comp_tree.t -> int list -> float;
  expand : Comp_tree.t -> members:int list -> distinct:int -> float;
}

let make_model ~params ~fingerprint ~normalizer ~explore ~expand =
  validate_params params;
  { params; fingerprint; normalizer; explore; expand }

let static ?(params = default_params) () =
  make_model ~params
    ~fingerprint:("static/" ^ params_fingerprint params)
    ~normalizer ~explore
    ~expand:(fun t ~members ~distinct -> expand params t ~members ~distinct)

let default_model = static ()

(* Qualifier facet pages behave differently from descriptor subtrees: the
   facet tree is one level deep with at most |qualifiers|+1 wide fanout, a
   page holds many citations before drilling further helps, and "expanding"
   a page is cheap (no recursive EdgeCut below it). Shift the thresholds and
   costs accordingly; future_fanout = the qualifier-table width so the
   future-drilldown term reflects one flat re-cut, not a deep descent. *)
let facet_params =
  { upper_threshold = 100; lower_threshold = 20; expand_cost = 8.0; future_fanout = 34 }

let facet_model = static ~params:facet_params ()

let model_of ?params ?model () =
  match model with
  | Some m -> m
  | None -> ( match params with None -> default_model | Some p -> static ~params:p ())
