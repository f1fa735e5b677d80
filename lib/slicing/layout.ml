module Curve = Shape.Curve
module Rect = Geom.Rect

type leaf = {
  lid : int;
  curve : Curve.t;
  area_min : float;
  area_target : float;
}

type violations = {
  at_shift : float;
  am_deficit : float;
  macro_deficit : float;
}

type placement = {
  rects : (int * Rect.t) list;
  viol : violations;
}

let no_violations = { at_shift = 0.0; am_deficit = 0.0; macro_deficit = 0.0 }

let penalty v ~at_w ~am_w ~macro_w =
  (at_w *. v.at_shift) +. (am_w *. v.am_deficit) +. (macro_w *. v.macro_deficit)

(* Slicing tree reconstructed from the postfix expression. *)
type tree =
  | Leaf of leaf
  | Node of { op : Polish.op; l : tree; r : tree; curve : Curve.t; am : float; at : float }

let curve_of = function Leaf l -> l.curve | Node n -> n.curve

let am_of = function Leaf l -> l.area_min | Node n -> n.am

let at_of = function Leaf l -> l.area_target | Node n -> n.at

let max_curve_points = 24

(* Dense lid -> leaf lookup table. Instance leaves are the block array
   mapped through [Block.to_leaf], so their lids are exactly 0..n-1; a
   duplicate or out-of-range lid means the caller wired the wrong leaf
   set and every per-operand lookup downstream would be garbage, so it
   is rejected up front with a structured diagnostic (not an
   [invalid_arg]: the supervisor must never swallow it into a stage
   fallback). Building the table once per instance also removes the
   O(n) [Array.find_opt] scan per operand that made every tree build
   quadratic. *)
let leaf_table leaves =
  let n = Array.length leaves in
  if n = 0 then [||]
  else begin
    let table = Array.make n leaves.(0) in
    let seen = Array.make n false in
    Array.iter
      (fun l ->
        if l.lid < 0 || l.lid >= n then
          Guard.Diag.fail ~code:"bad-leaf-table" ~stage:"floorplan"
            (Printf.sprintf "leaf lid %d out of range for %d leaves (lids must be 0..%d)"
               l.lid n (n - 1));
        if seen.(l.lid) then
          Guard.Diag.fail ~code:"bad-leaf-table" ~stage:"floorplan"
            (Printf.sprintf "duplicate leaf lid %d in a %d-leaf instance" l.lid n);
        seen.(l.lid) <- true;
        table.(l.lid) <- l)
      leaves;
    table
  end

let leaf_of_table table i =
  if i < 0 || i >= Array.length table then
    Guard.Diag.fail ~code:"bad-leaf-table" ~stage:"floorplan"
      (Printf.sprintf "expression operand %d has no leaf (%d leaves)" i
         (Array.length table));
  table.(i)

let build_tree (expr : Polish.t) ~table =
  let stack = ref [] in
  Array.iter
    (fun c ->
      (* Codes: H -> 0, V -> 1, operand i -> i + 2 ([Polish]). *)
      if c >= 2 then stack := Leaf (leaf_of_table table (c - 2)) :: !stack
      else begin
        let op = if c = 1 then Polish.V else Polish.H in
        match !stack with
        | r :: l :: rest ->
          (* V cut: children side by side -> widths add (compose_h).
             H cut: children stacked -> heights add (compose_v). *)
          let curve =
            let c =
              match op with
              | Polish.V -> Curve.compose_h (curve_of l) (curve_of r)
              | Polish.H -> Curve.compose_v (curve_of l) (curve_of r)
            in
            if Curve.is_unconstrained c then c else Curve.prune ~max_points:max_curve_points c
          in
          let am = am_of l +. am_of r and at = at_of l +. at_of r in
          stack := Node { op; l; r; curve; am; at } :: rest
        | _ -> invalid_arg "Layout.evaluate: malformed expression"
      end)
    (expr :> int array);
  match !stack with
  | [ t ] -> t
  | _ -> invalid_arg "Layout.evaluate: malformed expression"

(* ---- the split arithmetic ------------------------------------------ *)

(* One node's inputs and outputs, flat: the full walk below and [Inc]
   both fill a frame, call [split_node] or [leaf_deficit], and read the
   results, so neither keeps its own copy of the arithmetic and neither
   boxes a float per node. *)
let fr_x = 0
let fr_y = 1
let fr_w = 2
let fr_h = 3
let fr_at_a = 4
let fr_at_b = 5
let fr_am_a = 6
let fr_am_b = 7
let fr_extent = 8
let fr_cross = 9
let fr_mac_a = 10
let fr_mac_b = 11
let fr_def_a = 12
let fr_def_b = 13
let fr_s = 14
let fr_at_shift = 15
let fr_am_deficit = 16
let fr_macro_deficit = 17
let fr_ax = 18
let fr_ay = 19
let fr_aw = 20
let fr_ah = 21
let fr_bx = 22
let fr_by = 23
let fr_bw = 24
let fr_bh = 25
let fr_leaf_deficit = 26
(* scratch: a curve's minimum-area point *)
let fr_cw = 27
let fr_ch = 28

let frame () = Array.make 29 0.0

(* [Stdlib.max 0.0 x] and [Util.Stat.clamp], float-typed so they
   compile to plain comparisons. *)
let[@inline] pos x = if 0.0 >= x then 0.0 else x

let[@inline] clamp lo hi (x : float) = if x < lo then lo else if x > hi then hi else x

(* Minimum extent along the cut axis for a subtree inside the cross
   dimension, into [mac]; any unavoidable macro deficit, when no curve
   point respects the cross dimension, into [def]. *)
let macro_min_extent fr pts n ~width ~mac ~def =
  if Curve.min_extent pts n ~width fr ~cross:fr_cross ~out:mac then fr.(def) <- 0.0
  else if Curve.min_area_box pts n fr ~out:fr_cw then begin
    (* Even unlimited extent cannot fit: charge the smallest curve box's
       cross overflow as macro deficit and require its axis extent. *)
    let w = fr.(fr_cw) and h = fr.(fr_ch) in
    let need_axis = if width then w else h and need_cross = if width then h else w in
    fr.(mac) <- need_axis;
    fr.(def) <- pos (need_cross -. fr.(fr_cross)) *. need_axis
  end
  else begin
    fr.(mac) <- 0.0;
    fr.(def) <- 0.0
  end

(* Decide the size of the first child along the cut axis, staged:
   target-area share, then minimum areas when feasible, then the macro
   minima. Returns the split into [fr_s] and the violation delta into
   [fr_at_shift]/[fr_am_deficit]/[fr_macro_deficit]. *)
let split_extent fr =
  let extent = fr.(fr_extent) and cross = fr.(fr_cross) in
  let at_a = fr.(fr_at_a) and at_b = fr.(fr_at_b) in
  let am_a = fr.(fr_am_a) and am_b = fr.(fr_am_b) in
  let mac_min_a = fr.(fr_mac_a) and mac_min_b = fr.(fr_mac_b) in
  let total_at = at_a +. at_b in
  let share = if total_at > 0.0 then extent *. (at_a /. total_at) else extent /. 2.0 in
  (* Stage 1: respect minimum areas when feasible. *)
  let lo_am = if cross > 0.0 then am_a /. cross else 0.0 in
  let hi_am = if cross > 0.0 then extent -. (am_b /. cross) else extent in
  let s1 =
    if lo_am <= hi_am then clamp lo_am hi_am share
    else if am_a +. am_b > 0.0 then extent *. (am_a /. (am_a +. am_b))
    else share
  in
  (* Stage 2: macro minima override. *)
  let lo_mac = mac_min_a and hi_mac = extent -. mac_min_b in
  let s2 =
    if lo_mac <= hi_mac then clamp lo_mac hi_mac s1
    else if mac_min_a +. mac_min_b > 0.0 then
      extent *. (mac_min_a /. (mac_min_a +. mac_min_b))
    else s1
  in
  let s2 = clamp 0.0 extent s2 in
  let wa = s2 and wb = extent -. s2 in
  fr.(fr_s) <- s2;
  fr.(fr_at_shift) <- abs_float (s2 -. share) *. cross;
  fr.(fr_am_deficit) <- pos (am_a -. (wa *. cross)) +. pos (am_b -. (wb *. cross));
  fr.(fr_macro_deficit) <- (pos (mac_min_a -. wa) +. pos (mac_min_b -. wb)) *. cross

let split_node fr op a na b nb =
  let x = fr.(fr_x) and y = fr.(fr_y) and w = fr.(fr_w) and h = fr.(fr_h) in
  let vertical = match op with Polish.V -> true | Polish.H -> false in
  let extent = if vertical then w else h in
  fr.(fr_extent) <- extent;
  fr.(fr_cross) <- (if vertical then h else w);
  macro_min_extent fr a na ~width:vertical ~mac:fr_mac_a ~def:fr_def_a;
  macro_min_extent fr b nb ~width:vertical ~mac:fr_mac_b ~def:fr_def_b;
  split_extent fr;
  let s = fr.(fr_s) in
  let frac = clamp 0.0 1.0 (if extent > 0.0 then s /. extent else 0.5) in
  (* Child rects exactly as [Rect.split_v]/[split_h] derive them. *)
  fr.(fr_ax) <- x;
  fr.(fr_ay) <- y;
  if vertical then begin
    let wl = w *. frac in
    fr.(fr_aw) <- wl;
    fr.(fr_ah) <- h;
    fr.(fr_bx) <- x +. wl;
    fr.(fr_by) <- y;
    fr.(fr_bw) <- w -. wl;
    fr.(fr_bh) <- h
  end
  else begin
    let hb = h *. frac in
    fr.(fr_aw) <- w;
    fr.(fr_ah) <- hb;
    fr.(fr_bx) <- x;
    fr.(fr_by) <- y +. hb;
    fr.(fr_bw) <- w;
    fr.(fr_bh) <- h -. hb
  end

let leaf_deficit fr pts n =
  fr.(fr_leaf_deficit) <-
    (if Curve.fits_box pts n fr fr_w then 0.0
     else if Curve.min_area_box pts n fr ~out:fr_cw then begin
       let cw = fr.(fr_cw) and ch = fr.(fr_ch) in
       let by_w = (cw -. fr.(fr_w)) *. ch and by_h = (ch -. fr.(fr_h)) *. cw in
       let need = if by_w <= by_h then by_w else by_h in
       let need = if need <= 0.0 then abs_float need else need in
       if 1e-9 >= need then 1e-9 else need
     end
     else 0.0)

let add_viol a b =
  { at_shift = a.at_shift +. b.at_shift;
    am_deficit = a.am_deficit +. b.am_deficit;
    macro_deficit = a.macro_deficit +. b.macro_deficit }

(* ---- per-leaf attribution ------------------------------------------ *)

let rec fold_leaves t acc f =
  match t with
  | Leaf l -> f acc l
  | Node { l; r; _ } -> fold_leaves r (fold_leaves l acc f) f

let scale_viol v w =
  { at_shift = v.at_shift *. w;
    am_deficit = v.am_deficit *. w;
    macro_deficit = v.macro_deficit *. w }

(* Charge a violation delta to every leaf of [t], proportionally to
   target area (equal split when the subtree has none). The spread is
   attribution bookkeeping only: the exact total always lives in the
   shared [viol] accumulator, and downstream consumers reconcile the
   per-leaf rounding with an explicit residual (DESIGN.md §13). *)
let charge arr t v =
  if v.at_shift <> 0.0 || v.am_deficit <> 0.0 || v.macro_deficit <> 0.0 then
    match t with
    | Leaf l -> arr.(l.lid) <- add_viol arr.(l.lid) v
    | Node _ ->
      let total_at = at_of t in
      let n_leaves = fold_leaves t 0 (fun acc _ -> acc + 1) in
      let share l =
        if total_at > 0.0 then l.area_target /. total_at
        else 1.0 /. float_of_int n_leaves
      in
      fold_leaves t () (fun () l ->
          arr.(l.lid) <- add_viol arr.(l.lid) (scale_viol v (share l)))

let evaluate_attributed expr ~leaves ~budget =
  let tree = build_tree expr ~table:(leaf_table leaves) in
  let n = Array.fold_left (fun acc l -> max acc (l.lid + 1)) 0 leaves in
  let per_leaf = Array.make n no_violations in
  let rects = ref [] in
  let viol = ref no_violations in
  (* The one slicing placement recursion: [evaluate] is its projection
     and [Inc] reproduces its floats. The [charge] calls write only into
     [per_leaf]; every float feeding [rects]/[viol] is independent of
     them. *)
  let fr = frame () in
  let rec place t (r : Rect.t) =
    match t with
    | Leaf l ->
      (* Leaf macro fit check. *)
      fr.(fr_w) <- r.Rect.w;
      fr.(fr_h) <- r.Rect.h;
      leaf_deficit fr (l.curve :> float array) (Curve.size l.curve);
      let deficit = fr.(fr_leaf_deficit) in
      viol := add_viol !viol { no_violations with macro_deficit = deficit };
      per_leaf.(l.lid) <-
        add_viol per_leaf.(l.lid) { no_violations with macro_deficit = deficit };
      rects := (l.lid, r) :: !rects
    | Node { op; l; r = rt; _ } ->
      fr.(fr_x) <- r.Rect.x;
      fr.(fr_y) <- r.Rect.y;
      fr.(fr_w) <- r.Rect.w;
      fr.(fr_h) <- r.Rect.h;
      fr.(fr_at_a) <- at_of l;
      fr.(fr_at_b) <- at_of rt;
      fr.(fr_am_a) <- am_of l;
      fr.(fr_am_b) <- am_of rt;
      let ca = curve_of l and cb = curve_of rt in
      split_node fr op (ca :> float array) (Curve.size ca) (cb :> float array) (Curve.size cb);
      let def_a = fr.(fr_def_a) and def_b = fr.(fr_def_b) in
      viol := add_viol !viol { no_violations with macro_deficit = def_a +. def_b };
      charge per_leaf l { no_violations with macro_deficit = def_a };
      charge per_leaf rt { no_violations with macro_deficit = def_b };
      let dv =
        { at_shift = fr.(fr_at_shift);
          am_deficit = fr.(fr_am_deficit);
          macro_deficit = fr.(fr_macro_deficit) }
      in
      viol := add_viol !viol dv;
      (* Per-side decomposition of the split violation: the minimum-area
         addends are exactly the two terms summed inside [split_extent];
         the target shift has no natural side, so it splits evenly; the
         macro terms distribute the shared [cross] factor per side. *)
      let cross = fr.(fr_cross) in
      let wa = fr.(fr_s) and wb = fr.(fr_extent) -. fr.(fr_s) in
      let at_half = 0.5 *. dv.at_shift in
      charge per_leaf l
        { at_shift = at_half;
          am_deficit = pos (am_of l -. (wa *. cross));
          macro_deficit = pos (fr.(fr_mac_a) -. wa) *. cross };
      charge per_leaf rt
        { at_shift = dv.at_shift -. at_half;
          am_deficit = pos (am_of rt -. (wb *. cross));
          macro_deficit = pos (fr.(fr_mac_b) -. wb) *. cross };
      let ra = { Rect.x = fr.(fr_ax); y = fr.(fr_ay); w = fr.(fr_aw); h = fr.(fr_ah) } in
      let rb = { Rect.x = fr.(fr_bx); y = fr.(fr_by); w = fr.(fr_bw); h = fr.(fr_bh) } in
      place l ra;
      place rt rb
  in
  place tree budget;
  ({ rects = List.rev !rects; viol = !viol }, per_leaf)

let evaluate expr ~leaves ~budget = fst (evaluate_attributed expr ~leaves ~budget)

let tree_curve expr ~leaves =
  let tree = build_tree expr ~table:(leaf_table leaves) in
  curve_of tree
