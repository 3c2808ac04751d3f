type solution = { cost : float; cut_children : int list }

let max_size = Cost_model.max_size

let popcount = Bionav_util.Bits.popcount
let lowest_bit = Bionav_util.Bits.lowest_bit

let check_size tree =
  if Comp_tree.size tree > max_size then
    invalid_arg
      (Printf.sprintf "Opt_edgecut: tree has %d nodes (max %d)" (Comp_tree.size tree) max_size)

(* The tree's shape as masks and a preorder walk. Node indices put parents
   before children but are not a preorder, and the enumeration must follow
   [Comp_tree.children] order, so cuts are enumerated over [pre] with
   [skip] jumping past a subtree. *)
type shape = {
  size : int;
  full : int;
  parent : int array;
  sub : int array;  (* sub.(v): v's subtree in the whole tree, as a mask *)
  pre : int array;  (* nodes in preorder, children in [Comp_tree.children] order *)
  skip : int array;  (* skip.(i): the preorder position just past pre.(i)'s subtree *)
  pos : int array;  (* pos.(v): v's preorder position *)
}

let shape_of tree =
  check_size tree;
  let n = Comp_tree.size tree in
  let parent = Array.init n (Comp_tree.parent tree) in
  let sub = Array.make n 0 in
  for v = n - 1 downto 0 do
    sub.(v) <- List.fold_left (fun acc c -> acc lor sub.(c)) (1 lsl v) (Comp_tree.children tree v)
  done;
  let pre = Array.make n 0 and skip = Array.make n 0 and pos = Array.make n 0 in
  let next = ref 0 in
  let rec visit v =
    let i = !next in
    pre.(i) <- v;
    pos.(v) <- i;
    incr next;
    List.iter visit (Comp_tree.children tree v);
    skip.(i) <- !next
  in
  if n > 0 then visit (Comp_tree.root tree);
  { size = n; full = (1 lsl n) - 1; parent; sub; pre; skip; pos }

(* Every valid non-empty cut of the connected component [mask]: walk its
   nodes in preorder and, at each node reached, first cut above it (its
   subtree is then skipped), then look deeper instead. This yields the cuts
   in a fixed order — the first root child varies slowest, and within a
   subtree cutting at its root comes before every cut below it. [leaf] gets
   each cut with [lowered], the union of its lower components. Cutting at
   [v] removes [mask land sub.(v)]: [mask] is connected, so that is exactly
   [v]'s subtree within the component. *)
let rec enumerate sh mask leaf i stop cut lowered =
  if i = stop then (if cut <> 0 then leaf cut lowered)
  else begin
    let v = sh.pre.(i) in
    if mask land (1 lsl v) = 0 then enumerate sh mask leaf sh.skip.(i) stop cut lowered
    else begin
      enumerate sh mask leaf sh.skip.(i) stop (cut lor (1 lsl v))
        (lowered lor (mask land sh.sub.(v)));
      enumerate sh mask leaf (i + 1) stop cut lowered
    end
  end

let iter_cuts sh mask leaf =
  let i = sh.pos.(lowest_bit mask) in
  enumerate sh mask leaf (i + 1) sh.skip.(i) 0 0

(* Memo tables indexed by component mask, [2^size] entries each, NaN until
   computed. (A NaN the model itself yields is recomputed on each lookup,
   to the same value.) *)
type state = {
  ctx : Cost_model.t;
  sh : shape;
  explore : float array;  (* P_e(C) *)
  cost : float array;  (* cost(C) *)
  cut_term : float array;  (* the minimal cut term of C *)
  cut_mask : int array;  (* the cut achieving it; valid where [cut_term] is *)
  (* Scratch for the component being cut, one row per member count: a
     nested call only ever works on a strictly smaller component, so a row
     is never overwritten while in use. *)
  lower : float array;  (* row p, entry v: P(C_v|C) * cost(C_v) *)
  best_term : float array;
  best_cut : int array;
}

let init ctx =
  let sh = shape_of (Cost_model.tree ctx) in
  let n = sh.size and entries = 1 lsl sh.size in
  {
    ctx;
    sh;
    explore = Array.make entries Float.nan;
    cost = Array.make entries Float.nan;
    cut_term = Array.make entries Float.nan;
    cut_mask = Array.make entries 0;
    lower = Array.make ((n + 1) * n) 0.;
    best_term = Array.make (n + 1) 0.;
    best_cut = Array.make (n + 1) 0;
  }

let context st = st.ctx

let explore st m =
  let p = st.explore.(m) in
  if Float.is_nan p then begin
    let p = Cost_model.p_explore st.ctx m in
    st.explore.(m) <- p;
    p
  end
  else p

(* [Cost_model.branch_probability] over the memoized P_e. [r >= 1.0]
   clamps exactly as [Float.min 1.0 r] does, NaN included, without the
   call. *)
let branch_probability ~pe_parent pe =
  if pe_parent <= 0. then 0.
  else
    let r = pe /. pe_parent in
    if r >= 1.0 then 1.0 else r

(* cost(C): expected navigation cost of component [mask]. *)
let rec cost_of st mask =
  let c = st.cost.(mask) in
  if not (Float.is_nan c) then c
  else begin
    let ctx = st.ctx in
    let c =
      if popcount mask <= 1 then Cost_model.cost_unstructured ctx mask
      else if Cost_model.p_expand ctx mask <= 0. then Cost_model.cost_leaf ctx mask
      else Cost_model.cost ctx ~mask ~cut_term:(cut_term_of st mask)
    in
    st.cost.(mask) <- c;
    c
  end

(* Minimum over valid cuts of [cost(upper) + Σ_v (1 + cost(lower_v))], each
   cost weighted by its branch probability. The float operations are those
   of the list-based solver this replaced, in the same order — lower terms
   added in ascending node order, the upper term added to their sum, the
   first strictly smaller term kept — so its results are bit-identical. *)
and cut_term_of st mask =
  let t = st.cut_term.(mask) in
  if not (Float.is_nan t) then t
  else begin
    let sh = st.sh in
    let p = popcount mask in
    let row = p * sh.size in
    let pe = explore st mask in
    (* Every non-root member is a cut on its own, so each lower term is
       needed; compute them once instead of once per cut. *)
    let rest = ref (mask land (mask - 1)) in
    while !rest <> 0 do
      let v = lowest_bit !rest in
      let m = mask land sh.sub.(v) in
      st.lower.(row + v) <- branch_probability ~pe_parent:pe (explore st m) *. cost_of st m;
      rest := !rest land (!rest - 1)
    done;
    st.best_term.(p) <- infinity;
    st.best_cut.(p) <- 0;
    iter_cuts sh mask (fun cut lowered ->
        let lower_cost = ref 0. and c = ref cut in
        while !c <> 0 do
          lower_cost := !lower_cost +. 1. +. st.lower.(row + lowest_bit !c);
          c := !c land (!c - 1)
        done;
        (* The table reads are inlined: this runs once per cut. *)
        let upper = mask land lnot lowered in
        let pe_upper = st.explore.(upper) in
        let pe_upper = if Float.is_nan pe_upper then explore st upper else pe_upper in
        let cost_upper = st.cost.(upper) in
        let cost_upper = if Float.is_nan cost_upper then cost_of st upper else cost_upper in
        let term = (branch_probability ~pe_parent:pe pe_upper *. cost_upper) +. !lower_cost in
        if term < st.best_term.(p) then begin
          st.best_term.(p) <- term;
          st.best_cut.(p) <- cut
        end);
    let t = st.best_term.(p) in
    st.cut_term.(mask) <- t;
    st.cut_mask.(mask) <- st.best_cut.(p);
    t
  end

(* The tables are indexed by mask, so a public mask is checked before use:
   a non-empty subset of the tree's nodes whose members other than the
   shallowest all have their parent inside. *)
let check_mask st fn mask =
  let sh = st.sh in
  if mask <= 0 || mask land lnot sh.full <> 0 then
    invalid_arg
      (Printf.sprintf "Opt_edgecut.%s: mask %d is not a non-empty set of the tree's %d nodes" fn
         mask sh.size);
  let rest = ref (mask land (mask - 1)) in
  while !rest <> 0 do
    let v = lowest_bit !rest in
    if mask land (1 lsl sh.parent.(v)) = 0 then
      invalid_arg
        (Printf.sprintf "Opt_edgecut.%s: mask %d is not connected (node %d lacks its parent)" fn
           mask v);
    rest := !rest land (!rest - 1)
  done

let cost_mask st mask =
  check_mask st "cost_mask" mask;
  cost_of st mask

let solve_mask st mask =
  check_mask st "solve_mask" mask;
  if popcount mask < 2 then invalid_arg "Opt_edgecut.solve_mask: component too small to cut";
  let cut_term = cut_term_of st mask in
  { cost = cut_term; cut_children = Cost_model.members st.ctx st.cut_mask.(mask) }

let subtree_mask st ~mask v =
  check_mask st "subtree_mask" mask;
  if v < 0 || v >= st.sh.size || mask land (1 lsl v) = 0 then
    invalid_arg (Printf.sprintf "Opt_edgecut.subtree_mask: node %d is not in mask %d" v mask);
  mask land st.sh.sub.(v)

let solve_hist = Bionav_util.Metrics.histogram "bionav_opt_edgecut_solve_ms"

let solve ?model ?norm tree =
  check_size tree;
  if Comp_tree.size tree < 2 then invalid_arg "Opt_edgecut.solve: tree must have >= 2 nodes";
  let solution, elapsed_ms =
    Bionav_util.Timing.time (fun () ->
        let ctx = Cost_model.create ?model ?norm tree in
        solve_mask (init ctx) (Cost_model.full_mask ctx))
  in
  Bionav_util.Metrics.observe solve_hist elapsed_ms;
  solution

let expected_cost ?model ?norm tree =
  check_size tree;
  let ctx = Cost_model.create ?model ?norm tree in
  cost_mask (init ctx) (Cost_model.full_mask ctx)

let count_valid_cuts tree =
  let sh = shape_of tree in
  let count = ref 0 in
  iter_cuts sh sh.full (fun _ _ -> incr count);
  !count
