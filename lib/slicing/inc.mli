(** Incremental slicing-tree evaluation (DESIGN.md section 14).

    One value of {!t} holds the flat, preallocated evaluation state of a
    single annealing start. Each {!evaluate} diffs the expression
    against the last one evaluated on the same state and re-derives only
    the slicing subtrees the diff touches: curve composition runs for
    nodes whose postfix span contains a changed position, and placement
    recursion skips any subtree whose span is untouched and whose
    assigned rectangle is unchanged. Violation totals are re-folded from
    cached per-node contributions in the full evaluation's exact
    preorder, so the results — violations, rectangles, centers — are bit
    for bit what {!Layout.evaluate} returns for the same expression. The
    incremental property suite asserts this along random move walks,
    including reverts; it is the only evaluator the annealer uses, so
    that suite is its oracle.

    The diff targets the last {e evaluated} expression, not the
    annealer's accepted state, so rejected moves need no SA hook: the
    next candidate diffs as a reverted window plus a new window.

    A warm {!evaluate} allocates nothing: all of its floats live in
    arrays sized by {!create}, and it reaches {!Layout}'s split
    arithmetic and {!Shape.Curve}'s merge through calls that pass no
    float (DESIGN.md section 14). *)

type t

val create : table:Layout.leaf array -> budget:Geom.Rect.t -> t
(** Fresh (cold) state for an instance with leaf table [table] (from
    {!Layout.leaf_table}) laid out inside [budget]. The first
    {!evaluate} computes everything. *)

val evaluate : t -> Polish.t -> unit
(** Evaluate [expr], reusing whatever the diff allows. The expression
    must keep the length [create]'s table implies ([2n - 1]); M1/M2/M3
    all preserve it. The accessors below read the result until the next
    call. *)

val totals : t -> float array
(** The last evaluation's violation totals as [[| at_shift; am_deficit;
    macro_deficit |]], without allocating (do not mutate). *)

val violations : t -> Layout.violations
(** {!totals} as a record. *)

val rects : t -> Geom.Rect.t array
(** Per-lid rectangles of the last evaluation, freshly allocated. *)

val centers_x : t -> float array
(** Per-lid center coordinates of the last evaluation — the same floats
    [Geom.Rect.center] derives (do not mutate). *)

val centers_y : t -> float array

val full : t -> bool
(** True when the last evaluation recomputed every leaf (cold state):
    the caller must refresh all derived data, not just {!moved}. *)

val moved : t -> int array
(** Lids whose center changed in the last evaluation, in the first
    [n_moved] slots — the caller's dirty set for wirelength updates.
    Meaningless when {!full} is set. *)

val n_moved : t -> int
