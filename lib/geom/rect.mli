(** Axis-aligned rectangles (lower-left corner + dimensions). *)

type t = { x : float; y : float; w : float; h : float }

val make : x:float -> y:float -> w:float -> h:float -> t
(** Requires [w >= 0] and [h >= 0]. *)

val area : t -> float

val center : t -> Point.t

val contains_point : t -> Point.t -> bool
(** Closed containment. *)

val contains_rect : outer:t -> inner:t -> bool
(** [inner] fully inside [outer] (with a small epsilon tolerance). *)

val overlaps : t -> t -> bool
(** Strict interior overlap: touching edges do not count. *)

val intersection_area : t -> t -> float

val grid_cell : o:float -> size:float -> bins:int -> float -> int
(** [grid_cell ~o ~size ~bins v] is the cell of [v] on an axis of [bins]
    cells of [size] from [o], clamped to [0 .. bins-1] ([0] for NaN).
    One monotone formula, so a closed interval's cell range covers the
    cell of every point in it. *)

val grid_range : t -> grid:t -> bins:int -> int * int * int * int
(** [grid_range r ~grid ~bins] is [(i0, i1, j0, j1)]: the columns
    [i0 .. i1] and rows [j0 .. j1] of the [bins] x [bins] grid over
    [grid] that [r] can overlap, widened by one bin on each side so that
    rounding cannot leave one out. Every bin outside the range has zero
    intersection area with [r]. *)

val inset : t -> float -> t
(** Shrink by a margin on every side (clamped at degenerate). *)

val aspect_ratio : t -> float
(** max(w/h, h/w); [infinity] for degenerate rectangles. *)

val split_v : t -> float -> t * t
(** [split_v r frac] cuts vertically: left part takes fraction [frac] of
    the width. Requires [0 <= frac <= 1]. *)

val split_h : t -> float -> t * t
(** [split_h r frac] cuts horizontally: bottom part takes fraction [frac]
    of the height. *)

val corners : t -> Point.t array
(** The 4 corners: ll, lr, ur, ul. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
