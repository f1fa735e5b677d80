(* Incremental slicing-tree evaluation.

   A full [Layout.evaluate] rebuilds the whole tree and re-derives every
   shape curve and rectangle, although the M1/M2/M3 perturbation behind
   each proposed SA move only changes a bounded region of the Polish
   expression.
   This module keeps one flat, preallocated evaluation state per
   annealing start and, on each call, diffs the new expression against
   the last one it evaluated: only nodes whose postfix span contains a
   changed position re-derive their curve/area sums, and only subtrees
   whose assigned rectangle actually changed re-place their leaves.

   Bit-identity with [Layout.evaluate] (the DESIGN.md section 14
   determinism argument, asserted by the incremental property suite)
   rests on three facts:

   - A node whose span is unchanged and whose assigned rectangle equals
     the previous evaluation's is a pure function of unchanged inputs:
     every cached value below it (curves, rects, centers, violation
     contributions) is the value the full evaluation would recompute.
   - Violation totals are NOT resumed from per-subtree subtotals (float
     addition is not associative). Instead the elementary per-node
     contributions are cached and re-folded over the whole tree in the
     exact preorder and field order [Layout.evaluate] uses; recomputed
     nodes contribute bitwise-identical terms, so the folded sums are
     bitwise identical. Skipping the [+. 0.0] terms the full path adds
     for absent fields is exact: the accumulators are non-negative and
     [x +. 0.0 = x] for every non-negative float.
   - The caller's wirelength fold works the same way on the per-pair
     contribution array (see [Layout_gen]).

   The diff is taken against the last EVALUATED expression, not the
   annealer's accepted state, so rejected moves need no hook into the
   SA loop: the next candidate simply diffs as "reverted window plus
   new window".

   An evaluation allocates nothing (DESIGN.md section 14): every float
   lives in a float array sized at [create] — curves in per-node flat
   buffers, rectangles and accumulators in node arrays — and the split,
   merge and fit arithmetic is [Layout]'s and [Curve]'s, reached through
   calls that pass no float. *)

module Curve = Shape.Curve
module Rect = Geom.Rect

type t = {
  table : Layout.leaf array;   (* lid -> leaf, validated by [Layout.leaf_table] *)
  budget : Rect.t;
  len : int;                   (* expression length: 2 * n_blocks - 1 *)
  prev : int array;            (* the last-evaluated expression's codes *)
  mutable warm : bool;         (* caches consistent with [prev]? *)
  cp : int array;              (* changed-position prefix counts, len + 1 *)
  (* Structure of the current expression, rebuilt every evaluation
     (integer-only stack pass; the float work is what gets skipped). *)
  span_lo : int array;         (* lowest postfix index of node k's subtree *)
  left : int array;            (* child node ids; -1 marks an operand *)
  right : int array;
  lid : int array;             (* operand positions: the block id *)
  node_of : int array;         (* lid -> its operand position *)
  stack : int array;
  (* Bottom-up node data, cached across evaluations. A node's curve is
     the first [nd_n] points of [nd_pts]: the leaf's own storage for an
     operand, the node's preallocated [own] buffer for an operator. *)
  own : float array array;
  nd_pts : float array array;
  nd_n : int array;
  nd_am : float array;
  nd_at : float array;
  (* The rectangle each node is asked to fill ([q*], written by its
     parent before the recursion reaches it) and the one it filled in
     the last evaluation ([r*]). *)
  qx : float array;
  qy : float array;
  qw : float array;
  qh : float array;
  rx : float array;
  ry : float array;
  rw : float array;
  rh : float array;
  (* Elementary violation contributions per node, in the order
     [Layout.evaluate] adds them: [c_def] is the children's
     minimum-extent deficit sum (or the fit deficit for a leaf),
     [c_at]/[c_am]/[c_mac] the split's violation delta. *)
  c_def : float array;
  c_at : float array;
  c_am : float array;
  c_mac : float array;
  fr : float array;            (* [Layout]'s split frame *)
  (* Violation accumulators [at; am; macro]; they hold the last
     evaluation's totals between calls so an unchanged expression
     returns without re-folding. *)
  acc : float array;
  (* Outputs, indexed by lid. *)
  out_cx : float array;
  out_cy : float array;
  moved : int array;           (* lids whose center changed this evaluation *)
  mutable n_moved : int;
  mutable full : bool;         (* cold evaluation: treat every lid as moved *)
}

let a_at = 0
let a_am = 1
let a_mac = 2

let create ~table ~budget =
  let n = Array.length table in
  assert (n >= 1);
  let len = (2 * n) - 1 in
  let c = Rect.center budget in
  (* An operator composes two curves of at most [Layout.max_curve_points]
     points (after pruning) or of a leaf's size, whichever is larger. *)
  let cap =
    Array.fold_left
      (fun acc (l : Layout.leaf) -> max acc (Curve.size l.Layout.curve))
      Layout.max_curve_points table
  in
  { table;
    budget;
    len;
    prev = Array.make len 0;
    warm = false;
    cp = Array.make (len + 1) 0;
    span_lo = Array.make len 0;
    left = Array.make len (-1);
    right = Array.make len (-1);
    lid = Array.make len (-1);
    node_of = Array.make n 0;
    stack = Array.make len 0;
    own = Array.init len (fun _ -> Array.make (4 * cap) 0.0);
    nd_pts = Array.make len [||];
    nd_n = Array.make len 0;
    nd_am = Array.make len 0.0;
    nd_at = Array.make len 0.0;
    qx = Array.make len nan;
    qy = Array.make len nan;
    qw = Array.make len nan;
    qh = Array.make len nan;
    rx = Array.make len nan;
    ry = Array.make len nan;
    rw = Array.make len nan;
    rh = Array.make len nan;
    c_def = Array.make len 0.0;
    c_at = Array.make len 0.0;
    c_am = Array.make len 0.0;
    c_mac = Array.make len 0.0;
    fr = Layout.frame ();
    acc = Array.make 3 0.0;
    out_cx = Array.make n c.Geom.Point.x;
    out_cy = Array.make n c.Geom.Point.y;
    moved = Array.make n 0;
    n_moved = 0;
    full = true }

(* Accessors for the caller's wirelength update. [moved]/[n_moved] list
   the lids whose center changed in the last [evaluate]; when [full] is
   set the list is not meaningful and every pair must be recomputed. *)
let full t = t.full
let moved t = t.moved
let n_moved t = t.n_moved
let centers_x t = t.out_cx
let centers_y t = t.out_cy
let totals t = t.acc

let rects t =
  Array.map
    (fun k -> { Rect.x = t.rx.(k); y = t.ry.(k); w = t.rw.(k); h = t.rh.(k) })
    t.node_of

let violations t =
  { Layout.at_shift = t.acc.(a_at); am_deficit = t.acc.(a_am);
    macro_deficit = t.acc.(a_mac) }

(* Re-add a clean subtree's cached contributions in the preorder the
   full evaluation visits them: node first, then left, then right. *)
let rec fold_cached t k =
  let acc = t.acc in
  let l = t.left.(k) in
  acc.(a_mac) <- acc.(a_mac) +. t.c_def.(k);
  if l >= 0 then begin
    acc.(a_at) <- acc.(a_at) +. t.c_at.(k);
    acc.(a_am) <- acc.(a_am) +. t.c_am.(k);
    acc.(a_mac) <- acc.(a_mac) +. t.c_mac.(k);
    fold_cached t l;
    fold_cached t t.right.(k)
  end

(* Place node [k] into its asked-for rectangle, running the full
   evaluation's arithmetic on the recompute path. [may_skip] is true
   when the caches are consistent (warm state). *)
let rec place t ~may_skip k =
  let x = t.qx.(k) and y = t.qy.(k) and w = t.qw.(k) and h = t.qh.(k) in
  if
    may_skip
    && t.cp.(k + 1) - t.cp.(t.span_lo.(k)) = 0
    && t.rx.(k) = x && t.ry.(k) = y && t.rw.(k) = w && t.rh.(k) = h
  then fold_cached t k
  else begin
    t.rx.(k) <- x;
    t.ry.(k) <- y;
    t.rw.(k) <- w;
    t.rh.(k) <- h;
    let fr = t.fr and acc = t.acc in
    let l = t.left.(k) in
    if l < 0 then begin
      fr.(Layout.fr_w) <- w;
      fr.(Layout.fr_h) <- h;
      Layout.leaf_deficit fr t.nd_pts.(k) t.nd_n.(k);
      let deficit = fr.(Layout.fr_leaf_deficit) in
      t.c_def.(k) <- deficit;
      acc.(a_mac) <- acc.(a_mac) +. deficit;
      (* Same float expressions as [Rect.center]. *)
      let i = t.lid.(k) in
      let cx = x +. (w /. 2.0) and cy = y +. (h /. 2.0) in
      if not (cx = t.out_cx.(i) && cy = t.out_cy.(i)) then begin
        t.out_cx.(i) <- cx;
        t.out_cy.(i) <- cy;
        t.moved.(t.n_moved) <- i;
        t.n_moved <- t.n_moved + 1
      end
    end
    else begin
      let r = t.right.(k) in
      let op = if t.prev.(k) = 1 then Polish.V else Polish.H in
      fr.(Layout.fr_x) <- x;
      fr.(Layout.fr_y) <- y;
      fr.(Layout.fr_w) <- w;
      fr.(Layout.fr_h) <- h;
      fr.(Layout.fr_at_a) <- t.nd_at.(l);
      fr.(Layout.fr_at_b) <- t.nd_at.(r);
      fr.(Layout.fr_am_a) <- t.nd_am.(l);
      fr.(Layout.fr_am_b) <- t.nd_am.(r);
      Layout.split_node fr op t.nd_pts.(l) t.nd_n.(l) t.nd_pts.(r) t.nd_n.(r);
      let def_sum = fr.(Layout.fr_def_a) +. fr.(Layout.fr_def_b) in
      t.c_def.(k) <- def_sum;
      acc.(a_mac) <- acc.(a_mac) +. def_sum;
      let d_at = fr.(Layout.fr_at_shift)
      and d_am = fr.(Layout.fr_am_deficit)
      and d_mac = fr.(Layout.fr_macro_deficit) in
      t.c_at.(k) <- d_at;
      t.c_am.(k) <- d_am;
      t.c_mac.(k) <- d_mac;
      acc.(a_at) <- acc.(a_at) +. d_at;
      acc.(a_am) <- acc.(a_am) +. d_am;
      acc.(a_mac) <- acc.(a_mac) +. d_mac;
      (* The frame is reused below this node: hand both children their
         rectangles before recursing. *)
      t.qx.(l) <- fr.(Layout.fr_ax);
      t.qy.(l) <- fr.(Layout.fr_ay);
      t.qw.(l) <- fr.(Layout.fr_aw);
      t.qh.(l) <- fr.(Layout.fr_ah);
      t.qx.(r) <- fr.(Layout.fr_bx);
      t.qy.(r) <- fr.(Layout.fr_by);
      t.qw.(r) <- fr.(Layout.fr_bw);
      t.qh.(r) <- fr.(Layout.fr_bh);
      place t ~may_skip l;
      place t ~may_skip r
    end
  end

(* Evaluate [expr], reusing everything the diff against the previous
   evaluation allows. The violation totals are read through [totals] /
   [violations], rects and centers through their accessors (valid until
   the next call). *)
let evaluate t (expr : Polish.t) =
  if Polish.length expr <> t.len then
    invalid_arg "Inc.evaluate: expression length changed";
  let was_warm = t.warm in
  (* Phase 0: diff against the last-evaluated elements and take
     ownership of the new ones. Prefix counts make "any change in span
     [a, k]?" an O(1) query. *)
  let changed = ref 0 in
  let codes = (expr :> int array) in
  for k = 0 to t.len - 1 do
    let ck = codes.(k) in
    if not (was_warm && t.prev.(k) = ck) then begin
      t.prev.(k) <- ck;
      incr changed
    end;
    t.cp.(k + 1) <- !changed
  done;
  if was_warm && !changed = 0 then begin
    (* Identical expression (e.g. a no-op perturbation): every cached
       output and the held violation totals are the answer. *)
    t.n_moved <- 0;
    t.full <- false
  end
  else begin
    (* An exception below (diagnostic, injected fault) can leave the
       caches half-updated; drop them until an evaluation completes. *)
    t.warm <- false;
    (* Phase 1: structure + bottom-up curves/areas. The stack pass is
       integer work for every node; curve composition (the expensive
       part) only runs for nodes whose span changed. *)
    let sp = ref 0 in
    for k = 0 to t.len - 1 do
      let c = t.prev.(k) in
      (* Codes: H -> 0, V -> 1, operand i -> i + 2 ([Polish]). *)
      if c >= 2 then begin
        let i = c - 2 in
        t.span_lo.(k) <- k;
        t.left.(k) <- -1;
        t.lid.(k) <- i;
        if not was_warm || t.cp.(k + 1) - t.cp.(k) > 0 then begin
          let leaf = Layout.leaf_of_table t.table i in
          t.node_of.(i) <- k;
          t.nd_pts.(k) <- (leaf.Layout.curve :> float array);
          t.nd_n.(k) <- Curve.size leaf.Layout.curve;
          t.nd_am.(k) <- leaf.Layout.area_min;
          t.nd_at.(k) <- leaf.Layout.area_target
        end;
        t.stack.(!sp) <- k;
        incr sp
      end
      else begin
        if !sp < 2 then invalid_arg "Layout.evaluate: malformed expression";
        let r = t.stack.(!sp - 1) and l = t.stack.(!sp - 2) in
        sp := !sp - 2;
        t.span_lo.(k) <- t.span_lo.(l);
        t.left.(k) <- l;
        t.right.(k) <- r;
        if not was_warm || t.cp.(k + 1) - t.cp.(t.span_lo.(k)) > 0 then begin
          (* V cut: children side by side -> widths add; H cut: stacked
             -> heights add. *)
          let dst = t.own.(k) in
          let m =
            Curve.merge ~stack:(c = 0) t.nd_pts.(l) t.nd_n.(l) t.nd_pts.(r) t.nd_n.(r) dst
          in
          t.nd_pts.(k) <- dst;
          t.nd_n.(k) <- Curve.prune_in_place ~max_points:Layout.max_curve_points dst m;
          t.nd_am.(k) <- t.nd_am.(l) +. t.nd_am.(r);
          t.nd_at.(k) <- t.nd_at.(l) +. t.nd_at.(r)
        end;
        t.stack.(!sp) <- k;
        incr sp
      end
    done;
    if !sp <> 1 then invalid_arg "Layout.evaluate: malformed expression";
    (* Phase 2+3: top-down placement with subtree reuse, folding the
       violation contributions in evaluation order as it goes. *)
    Array.fill t.acc 0 3 0.0;
    t.n_moved <- 0;
    t.full <- not was_warm;
    let root = t.len - 1 and b = t.budget in
    t.qx.(root) <- b.Rect.x;
    t.qy.(root) <- b.Rect.y;
    t.qw.(root) <- b.Rect.w;
    t.qh.(root) <- b.Rect.h;
    place t ~may_skip:was_warm root;
    t.warm <- true
  end
