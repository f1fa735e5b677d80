(** Shape curves Γ (paper §II-D, Fig. 4b).

    A shape curve is a Pareto staircase of bounding boxes (w, h): the
    point set contains the minimal boxes able to hold some placement of
    the macros of a block; every box dominating a curve point also fits.
    The special {!unconstrained} curve (a block with no macros) fits in
    any box.

    Points are kept sorted by increasing width / decreasing height, and
    curves are pruned to a bounded number of points to keep compositions
    cheap. *)

type t = private float array
(** Flat storage: point [i] is [(t.(2i), t.(2i+1))] = (w, h). The empty
    array is {!unconstrained}. *)

val unconstrained : t
(** No macro constraint: every box fits. *)

val of_points : (float * float) list -> t
(** Pareto-prunes the candidate list. Requires at least one point with
    positive dimensions. *)

val of_macro : w:float -> h:float -> ?rotate:bool -> unit -> t
(** A hard macro's curve: its footprint, plus the 90-degree rotation when
    [rotate] (default true) and the macro is not square. *)

val points : t -> (float * float) list
(** Pareto points, increasing width. Empty for {!unconstrained}. *)

val is_unconstrained : t -> bool

val fits : t -> w:float -> h:float -> bool
(** Can the block's macros be placed in a [w] x [h] box? *)

val min_area_point : t -> (float * float) option
(** Curve point with the smallest area; [None] for {!unconstrained}. *)

val min_area : t -> float
(** Area of {!min_area_point}; 0 for {!unconstrained}. *)

val compose_h : t -> t -> t
(** Horizontal juxtaposition (side by side): widths add, heights max. *)

val compose_v : t -> t -> t
(** Vertical stacking: heights add, widths max. *)

val compose_best : t -> t -> t
(** Pareto union of both compositions — the curve of the best slicing
    arrangement of the two sub-blocks. *)

val prune : max_points:int -> t -> t
(** Thin the staircase to at most [max_points] points, keeping the
    extremes and a spread of intermediate points. *)

val size : t -> int
(** Number of points. *)

(** {1 Flat buffers}

    The functions above applied to the first [n] points of any flat
    buffer — a curve's own storage, or a caller-owned preallocated
    array — so that an evaluator can keep every curve it derives in
    place without allocating. [n = 0] is the unconstrained curve. A
    float passed to a function of another module is boxed, so float
    inputs and outputs go through slots of a caller-owned [float array]. *)

val merge : stack:bool -> float array -> int -> float array -> int -> float array -> int
(** [merge ~stack a na b nb dst] writes the composition of [a] and [b]
    into [dst] and returns its point count: side by side ({!compose_h})
    when [stack] is false, stacked ({!compose_v}) when true. [dst] must
    hold [2 * (na + nb)] floats and alias neither input. This is the one
    staircase merge; {!compose_h}/{!compose_v} are it on fresh storage. *)

val prune_in_place : max_points:int -> float array -> int -> int
(** {!prune} of the first [n] points, in place; returns the new count. *)

val fits_box : float array -> int -> float array -> int -> bool
(** [fits_box a n box i]: {!fits} with [w = box.(i)], [h = box.(i+1)]. *)

val min_extent :
  float array -> int -> width:bool -> float array -> cross:int -> out:int -> bool
(** [width]: the least width w such that {!fits} with [h = q.(cross)];
    otherwise the least height with [w = q.(cross)]. False when no point
    qualifies, else the result is in [q.(out)] (0 for {!unconstrained}). *)

val min_area_box : float array -> int -> float array -> out:int -> bool
(** {!min_area_point}: false for [None], else the point is in
    [q.(out)], [q.(out+1)]. *)

val pp : Format.formatter -> t -> unit
