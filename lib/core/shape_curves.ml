module Curve = Shape.Curve
module Tree = Hier.Tree
module Flat = Netlist.Flat

type t = {
  curves : Curve.t array;
  macro_areas : float array;
}

(* Curve of an intermediate node: anneal over slicing arrangements of the
   macro-constrained children, minimizing the bounding-box area of the
   composed curve; the best arrangement's full staircase becomes Γ. *)
let combine_children ~config ~rng child_curves child_areas =
  match Array.length child_curves with
  | 0 -> Curve.unconstrained
  | 1 -> child_curves.(0)
  | n ->
    let leaves =
      Array.init n (fun i ->
          { Slicing.Layout.lid = i;
            curve = child_curves.(i);
            area_min = child_areas.(i);
            area_target = child_areas.(i) })
    in
    let module W = Slicing.Polish.Walker in
    let cost w = Curve.min_area (Slicing.Layout.tree_curve (W.expr w) ~leaves) in
    let init = Slicing.Polish.initial_random rng ~n in
    let result =
      Anneal.Sa.anneal ~rng ~init:(W.create init) ~cost ~perturb:W.perturb ~undo:W.undo
        ~copy:W.copy ~params:config.Config.curve_sa ()
    in
    Obs.Perf.add Obs.Perf.sc_combines 1;
    Obs.Perf.add Obs.Perf.sc_sa_moves result.Anneal.Sa.moves;
    let best = Slicing.Layout.tree_curve (W.expr result.Anneal.Sa.best) ~leaves in
    (* Also keep the initial arrangement's shapes for diversity. *)
    let fallback = Slicing.Layout.tree_curve init ~leaves in
    let merged =
      match (Curve.points best, Curve.points fallback) with
      | [], _ | _, [] -> best
      | pb, pf -> Curve.of_points (pb @ pf)
    in
    Curve.prune ~max_points:config.Config.max_curve_points merged

let generate_body tree ~config ~rng =
  let n = Tree.node_count tree in
  Obs.Span.attr_int "ht_nodes" n;
  let curves = Array.make n Curve.unconstrained in
  let macro_areas = Array.make n 0.0 in
  let flat = Tree.flat tree in
  (* Children always have larger ids than their parents (scopes are
     created in preorder, leaves after all scopes), so a descending scan
     processes children first. *)
  for id = n - 1 downto 0 do
    let node = Tree.node tree id in
    match node.Tree.kind with
    | Tree.Macro_cell fid ->
      let info =
        match flat.Flat.nodes.(fid).Flat.kind with
        | Flat.Kmacro info -> info
        | Flat.Kflop | Flat.Kcomb | Flat.Kport _ -> assert false
      in
      curves.(id) <-
        Curve.of_macro ~w:info.Netlist.Design.mw ~h:info.Netlist.Design.mh ();
      macro_areas.(id) <- info.Netlist.Design.mw *. info.Netlist.Design.mh
    | Tree.Glue _ -> ()
    | Tree.Scope _ ->
      let constrained =
        List.filter
          (fun c -> not (Curve.is_unconstrained curves.(c)))
          node.Tree.children
      in
      let child_curves = Array.of_list (List.map (fun c -> curves.(c)) constrained) in
      let child_areas = Array.of_list (List.map (fun c -> macro_areas.(c)) constrained) in
      curves.(id) <- combine_children ~config ~rng child_curves child_areas;
      macro_areas.(id) <- Array.fold_left ( +. ) 0.0 child_areas
  done;
  { curves; macro_areas }

let generate tree ~config ~rng =
  Obs.Span.with_ ~name:"shape_curves.generate" (fun () -> generate_body tree ~config ~rng)

let curve t id = t.curves.(id)

let macro_area t id = t.macro_areas.(id)
