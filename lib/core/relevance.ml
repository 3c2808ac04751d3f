let component_weight = Active_tree.component_weight

let rank_visible active nodes =
  let weighted = List.map (fun n -> (n, component_weight active n)) nodes in
  List.map fst
    (List.sort
       (fun (na, a) (nb, b) -> if a = b then Int.compare na nb else Float.compare b a)
       weighted)

let ranked_children active node = rank_visible active (Active_tree.visible_children active node)

let render_ranked active =
  let nav = Active_tree.nav active in
  let buf = Buffer.create 1024 in
  let rec go depth node =
    Buffer.add_string buf
      (Printf.sprintf "%s%s (%d)%s\n" (String.make (2 * depth) ' ') (Nav_tree.label nav node)
         (Active_tree.component_distinct active node)
         (if Active_tree.is_expandable active node then " >>>" else ""));
    List.iter (go (depth + 1)) (ranked_children active node)
  in
  go 0 (Nav_tree.root nav);
  Buffer.contents buf
