(** SVG output: floorplans, dataflow diagrams (paper Fig. 9d), density
    heat maps. *)

type style = {
  fill : string;
  stroke : string;
  opacity : float;
}

val macro_style : style

val floorplan :
  die:Geom.Rect.t ->
  rects:(string * Geom.Rect.t * style) list ->
  ?arrows:(Geom.Point.t * Geom.Point.t * float) list ->
  ?size:int ->
  unit ->
  string
(** SVG document with labelled rectangles and optional affinity arrows
    (the third component is the line weight). Y axis is flipped so the
    die's origin is bottom-left, as in the floorplan. *)

val dataflow_diagram :
  die:Geom.Rect.t ->
  blocks:(string * Geom.Rect.t * int) list ->
  affinity:float array array ->
  ?size:int ->
  unit ->
  string
(** The paper's interactive-tool view: one coloured box per Gdf block
    (the int is the macro count; 0 means a std-cell block) and arrows
    whose opacity scales with the pairwise affinity. *)

val floorplan_levels :
  die:Geom.Rect.t ->
  levels:Hidap.Floorplan.level_info list ->
  ?macros:(string * Geom.Rect.t) list ->
  ?size:int ->
  unit ->
  (int * string) list
(** One floorplan SVG per recursion depth of a multi-level run
    ([(depth, svg)], depth 0 first): the block rectangles of that depth,
    labelled with their macro count ("c" for cell-only blocks). When
    [macros] is given, a final snapshot of the placed macros is appended
    at depth [max_depth + 1]. *)

val contribution_heatmap :
  labels:string array -> values:float array array -> ?cell:int -> unit -> string
(** Labelled symmetric-matrix heat map: cell [(i, j)] is shaded by
    [values.(i).(j)] normalized to the matrix maximum, with row labels
    on the left, rotated column labels on top and a hover tooltip per
    cell. Used for per-pair affinity wirelength contributions
    (DESIGN.md §13); labels are XML-escaped. [cell] is the cell edge in
    pixels. *)

val xml_escape : string -> string
(** Escapes ampersand, angle brackets and double quote for XML text
    and attribute values. *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)
