(** Standard-cell global placement substrate.

    Places the movable cells (flops and combinational gates) of a flat
    netlist with macros and ports fixed, in three phases:

    + {e connectivity optimization}: iterated star-model averaging (a
      Jacobi relaxation of the quadratic wirelength objective) moves each
      cell to the unweighted mean of the pin centroids of its nets,
      anchored by the fixed macros and ports;
    + {e spreading}: density-capped grid diffusion. The die is cut into
      a grid whose bins hold at most 70% of their macro-free area; an
      overflowing bin keeps the cells nearest its centre and spills the
      rest to the nearest bin with spare capacity, so cells stay local;
    + {e smoothing}: a few damped relaxation sweeps, each followed by
      pushing every cell out of the macros it landed in.

    The same engine evaluates every macro-placement flow, mirroring the
    paper's protocol ("metrics are taken after placement of standard
    cells using the same tool"). *)

type macro_place = Hidap.macro_placement = {
  fid : int;
  rect : Geom.Rect.t;
  orient : Geom.Orientation.t;
}

type t = {
  positions : Geom.Point.t array;  (** per flat node id (cells and ports) *)
  die : Geom.Rect.t;
  movable : bool array;  (** per flat node id *)
}

type params = {
  iterations : int;  (** star-model relaxation sweeps *)
  spread_grid : int;  (** spreading grid bins per axis *)
  smooth_iterations : int;  (** post-spreading relaxation sweeps *)
}

val default_params : params

val run :
  ?params:params ->
  flat:Netlist.Flat.t ->
  macros:macro_place list ->
  port_pos:(int -> Geom.Point.t option) ->
  die:Geom.Rect.t ->
  unit ->
  t
(** [port_pos fid] gives the position of flat port [fid]; ports without a
    position sit at the die's lower-left corner [(die.x, die.y)]
    (degenerate, but keeps the solver total). *)

val density_map :
  t -> flat:Netlist.Flat.t -> macros:macro_place list -> bins:int -> float array array
(** [bins x bins] grid of placement density (cell area per bin area,
    macros included); row 0 is the bottom of the die. *)

val macro_pin_position :
  flat:Netlist.Flat.t -> macros:macro_place list -> int -> dir:[ `In | `Out ] ->
  Geom.Point.t option
(** Pin position of a macro flat node under the flipping pin model. *)

val push_out :
  macro_rects:Geom.Rect.t list -> die:Geom.Rect.t -> Geom.Point.t array -> Geom.Point.t array
(** The smoothing phase's macro push-out applied to every point: each
    macro of [macro_rects], in list order, that contains the current
    point (closed rectangle) moves it to the macro's nearest edge, 0.5
    outside, and the result is clamped to [die]. Runs the bin-indexed
    search {!run} uses. Exposed for tests. *)
