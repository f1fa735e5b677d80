(** Deterministic synthetic RTL circuit generator.

    Substitutes the paper's proprietary industrial designs (DESIGN.md §1).
    Generated designs have the structural features HiDaP exploits:

    - a module hierarchy (top → subsystems → units);
    - hard memory macros concentrated inside units;
    - multi-bit pipeline registers named [stageN_i] so array clustering
      recovers their width;
    - datapath buses chaining units within a subsystem and subsystems
      within the top, with register stages defining latency;
    - combinational glue and filler logic spread over the hierarchy.

    Everything is driven by an explicit seed; equal parameters produce
    byte-identical designs. *)

type params = {
  name : string;
  seed : int;
  n_subsystems : int;
  units_per_subsystem : int;
  n_macros : int;  (** exact macro count, distributed over the units *)
  bus_width : int;  (** datapath bit width *)
  pipe_stages : int;  (** register stages between unit macros *)
  target_cells : int;  (** approximate standard-cell count *)
  macro_w : float;
  macro_h : float;  (** base macro footprint, jittered *)
  port_arrays : int;  (** number of top-level bus ports *)
  cross_links : int;  (** connector tap buses between subsystems *)
  cell_area : float;
      (** area per generated standard cell. The suite scales cell counts
          1:100, so each generated cell aggregates ~100 real cells; its
          area keeps the cell/macro area balance of the paper's
          macro-dominated industrial designs *)
}

val default : params

val scale_macros : params -> n_macros:int -> params

val generate : params -> Netlist.Design.t
(** [Guard.Validate.design] accepts the result as it is: no
    diagnostics and no repairs (the test suite checks this on c1–c8,
    fig1, fig2 and random parameters). *)

val macro_count : params -> int
(** Exact number of macros [generate] will emit. *)
