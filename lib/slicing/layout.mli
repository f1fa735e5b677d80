(** Top-down area-budgeting layout of a slicing tree (paper §IV-E,
    Fig. 8).

    Unlike bottom-up shape-curve packing, the assigned dimensions are a
    budget, not a constraint: the layout always consumes exactly the
    rectangle it was given. At each internal node the rectangle is cut
    (vertically for [V], horizontally for [H]) proportionally to the
    subtree target areas; shape-curve and minimum-area requirements then
    shift the cut, and any shifted or unsatisfiable area is reported as a
    violation, graded by severity: target area [at] (mildest), minimum
    area [am], macro area (most severe). *)

type leaf = {
  lid : int;  (** operand index in the Polish expression *)
  curve : Shape.Curve.t;  (** macro shape curve; unconstrained if none *)
  area_min : float;  (** am: macros + standard cells *)
  area_target : float;  (** at: am plus absorbed glue area *)
}

type violations = {
  at_shift : float;  (** area moved away from the target-proportional cut *)
  am_deficit : float;  (** minimum area not satisfied *)
  macro_deficit : float;  (** macro area that does not fit its rectangle *)
}

type placement = {
  rects : (int * Geom.Rect.t) list;  (** leaf lid -> assigned rectangle *)
  viol : violations;
}

val no_violations : violations

val penalty : violations -> at_w:float -> am_w:float -> macro_w:float -> float
(** Weighted violation sum, used as the paper's multiplicative penalty
    term: [1. +. penalty ...] multiplies the wirelength cost. *)

val evaluate_attributed :
  Polish.t -> leaves:leaf array -> budget:Geom.Rect.t -> placement * violations array
(** Lay the slicing tree out inside [budget] and attribute the violation
    total to the leaves. [leaves] must cover exactly the operand indices
    of the expression. The returned rectangles partition the budget
    exactly (up to floating-point rounding).

    This is the one full placement walk: {!evaluate} is its projection,
    and the incremental evaluator {!Inc} is tested bit for bit against
    it. The attribution never feeds a placement float. Slot [lid] of the
    array holds the share of [placement.viol] charged to that leaf:
    leaf macro-fit deficits go to the leaf itself; each internal node's
    split violations go to its two subtrees (the exact per-side
    minimum-area addends, the target shift split evenly, the macro
    minima distributed by side) and a subtree's charge is spread over
    its leaves proportionally to target area (equal split when the
    subtree has no target area). The charges sum to the total only up
    to float rounding; consumers reconcile with an explicit residual
    (DESIGN.md §13). *)

val evaluate : Polish.t -> leaves:leaf array -> budget:Geom.Rect.t -> placement
(** [fst (evaluate_attributed ...)]: the placement alone. *)

val tree_curve : Polish.t -> leaves:leaf array -> Shape.Curve.t
(** Bottom-up composition of the leaf curves along the tree — the shape
    curve of the whole arrangement. *)

(** {1 Evaluation internals}

    Shared with {!Inc}, the incremental evaluator, which must reproduce
    this module's floats bit for bit. *)

val leaf_table : leaf array -> leaf array
(** Dense lid -> leaf table: slot [lid] holds the leaf carrying that
    lid. The leaf lids must be exactly [0..n-1]; a duplicate or
    out-of-range lid raises a structured [bad-leaf-table] diagnostic
    ({!Guard.Diag.Fail}). Build it once per instance — it replaces the
    per-operand linear scan that made tree construction quadratic. *)

val leaf_of_table : leaf array -> int -> leaf
(** Table lookup with the same [bad-leaf-table] diagnostic for an
    operand index outside the table. *)

val max_curve_points : int
(** Pruning bound applied to every composed internal-node curve. *)

(** {2 The split frame}

    One node's inputs and outputs, flat in a [float array]: the full
    walk and {!Inc} fill a frame, call {!split_node} or {!leaf_deficit}
    and read the results, so both run the same arithmetic and neither
    boxes a float per node. The [fr_*] values are slot indices. *)

val frame : unit -> float array
(** A fresh frame. *)

val fr_x : int
val fr_y : int
val fr_w : int
val fr_h : int
(** Inputs: the node's rectangle. *)

val fr_at_a : int
val fr_at_b : int
val fr_am_a : int
val fr_am_b : int
(** Inputs: the two subtrees' target and minimum areas. *)

val fr_def_a : int
val fr_def_b : int
(** Outputs: each subtree's unavoidable macro deficit when no point of
    its curve respects the cross dimension. *)

val fr_at_shift : int
val fr_am_deficit : int
val fr_macro_deficit : int
(** Outputs: the split's violation delta. *)

val fr_ax : int
val fr_ay : int
val fr_aw : int
val fr_ah : int
val fr_bx : int
val fr_by : int
val fr_bw : int
val fr_bh : int
(** Outputs: the two children's rectangles, as [Geom.Rect.split_v] /
    [split_h] derive them. *)

val fr_leaf_deficit : int
(** Output of {!leaf_deficit}. *)

val split_node : float array -> Polish.op -> float array -> int -> float array -> int -> unit
(** [split_node fr op a na b nb] splits the node rectangle of [fr] with
    cut [op] between subtrees whose shape curves are the first [na]
    points of [a] and [nb] of [b] (flat, see {!Shape.Curve.merge}):
    minimum extents, then the staged split (target-area share, minimum
    areas when feasible, macro minima), its violation delta and the
    child rectangles. *)

val leaf_deficit : float array -> float array -> int -> unit
(** [leaf_deficit fr pts n]: the macro deficit of a leaf whose curve is
    the first [n] points of [pts] inside a [fr_w] x [fr_h] box, into
    [fr_leaf_deficit] (0 when a curve point fits). *)
