(** Macro orientation post-process (paper Algorithm 1, "memory
    flipping").

    The pin model places all input pins at the centre of the macro's west
    face and all output pins at the centre of its east face (in the
    reference orientation) — the typical single-sided/double-sided memory
    pinout. Flipping evaluates the footprint-preserving orientations
    against the macro's side dataflow: each Gseq edge pulls its pin
    toward the other endpoint's position, weighted by the connection
    width. The candidate set preserves the placed footprint: starting
    from the base orientation recorded by the floorplanner
    (R0 / MX / MY / R180 for an upright macro, R90 / R270 / MX90 / MY90
    for one rotated to fit its block, all eight for a square macro).
    The same pin model is exported for the downstream
    wirelength/timing metrics so that flipping gains are measurable. *)

val pin_position :
  rect:Geom.Rect.t -> orient:Geom.Orientation.t -> dir:[ `In | `Out ] -> Geom.Point.t
(** Absolute pin position of a placed macro. [rect] is the placed
    rectangle (library footprint swapped when [orient] swaps dims). *)

type result = {
  orientations : (int * Geom.Orientation.t) list;  (** flat macro id -> orientation *)
  gain : float;  (** estimated side-dataflow wirelength reduction *)
}

val run :
  tree:Hier.Tree.t ->
  gseq:Seqgraph.t ->
  ports:Port_plan.t ->
  macros:(int * Geom.Rect.t * Geom.Orientation.t) list ->
  ht_rects:(int, Geom.Rect.t) Hashtbl.t ->
  die:Geom.Rect.t ->
  config:Config.t ->
  result
