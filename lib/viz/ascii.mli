(** Terminal rendering of floorplans and density maps. *)

val floorplan :
  die:Geom.Rect.t ->
  rects:(string * Geom.Rect.t) list ->
  ?width:int ->
  ?height:int ->
  unit ->
  string
(** Draw labelled rectangles in a character grid. Each rectangle is
    filled with the first character of its label; overlaps show ['#'].
    The die boundary is drawn with ['.']. Row 0 of the output is the top
    of the die. *)

val density :
  float array array -> ?width:int -> ?height:int -> unit -> string
(** Grey-ramp rendering of a density grid (column-major input as produced
    by {!Cellplace.density_map}: [grid.(ix).(iy)], [iy = 0] at the
    bottom). *)
