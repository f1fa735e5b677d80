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

val macro_min_extent :
  Shape.Curve.t -> cross:float -> axis:[ `Width | `Height ] -> float * float
(** Minimum extent along the cut axis for a subtree inside cross
    dimension [cross], paired with any unavoidable macro deficit when no
    curve point respects [cross]. *)

val split_extent :
  extent:float ->
  cross:float ->
  at_a:float ->
  at_b:float ->
  am_a:float ->
  am_b:float ->
  mac_min_a:float ->
  mac_min_b:float ->
  float * violations
(** Size of the first child along the cut axis plus the split's
    violation delta (see the implementation for the staged clamping). *)
