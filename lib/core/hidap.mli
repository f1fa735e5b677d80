(** HiDaP — Hierarchical Dataflow Placement (top flow, paper
    Algorithm 1).

    {!prepare} builds the λ-independent stages once per design
    (hierarchy tree, Gseq, shape curves SΓ, port plan); {!place_design}
    runs floorplanning, where λ enters the affinity (§IV-D), and macro
    flipping for one λ; {!place} is the two in a row. The paper's λ
    sweep (§V) lives with the metrics that judge it, in [Evalflow]. *)

module Config = Config
module Block = Block
module Port_plan = Port_plan
module Shape_curves = Shape_curves
module Target_area = Target_area
module Layout_gen = Layout_gen
module Floorplan = Floorplan
module Flipping = Flipping
module Legalize = Legalize
module Placement_io = Placement_io

type macro_placement = Placement_io.macro_placement = {
  fid : int;  (** flat node id of the macro *)
  rect : Geom.Rect.t;
  orient : Geom.Orientation.t;
}

type design = private {
  flat : Netlist.Flat.t;
  config : Config.t;
  die : Geom.Rect.t;
  tree : Hier.Tree.t;
  gseq : Seqgraph.t;
  sgamma : Shape_curves.t;
  ports : Port_plan.t;
  rng_state : int64;  (** the flow RNG right after the shape-curve split *)
}
(** The λ-independent stages of one design. It is read-only after
    {!prepare}, so {!place_design} calls on other domains may share it:
    the tree (its [macro_ht] included), the Gseq, SΓ and the port plan's
    tables are only read. *)

type result = {
  die : Geom.Rect.t;
  placements : macro_placement list;
  levels : Floorplan.level_info list;  (** per-instance block rectangles *)
  top : Floorplan.instance_snapshot option;
  tree : Hier.Tree.t;
  gseq : Seqgraph.t;
  ports : Port_plan.t;
  ht_rects : (int, Geom.Rect.t) Hashtbl.t;
  lambda : float;  (** λ used for this result *)
  sa_moves : int;
  flip_gain : float;
}

val die_for : Netlist.Flat.t -> config:Config.t -> Geom.Rect.t
(** The square die at the origin whose area is the total cell area over
    [config.utilization], unless a macro is longer than that side: then
    the side is the longest macro side, so every macro fits the die in
    every orientation. *)

val seqgraph : config:Config.t -> Netlist.Flat.t -> Seqgraph.t
(** The [seqgraph.build] stage, at [config.bit_threshold]. *)

val port_plan : Seqgraph.t -> die:Geom.Rect.t -> Port_plan.t
(** The [port_plan.make] stage. *)

val prepare :
  ?config:Config.t ->
  ?die:Geom.Rect.t ->
  ?gseq:Seqgraph.t ->
  ?ports:Port_plan.t ->
  Netlist.Flat.t ->
  design
(** Builds the tree and SΓ. [die], [gseq] and [ports] (the plan of
    [gseq] on [die]) default to {!die_for}, {!seqgraph} and
    {!port_plan}. *)

val place_design : ?ckpt:Ckpt.Session.t -> design -> lambda:float -> result
(** Floorplanning and flipping at [lambda], with the design's
    configuration otherwise: bit-identical to [place] at that λ. *)

val place :
  ?config:Config.t -> ?die:Geom.Rect.t -> ?ckpt:Ckpt.Session.t -> Netlist.Flat.t -> result
(** {!prepare} then {!place_design} at [config.lambda], under one
    [hidap.place] span. The flow is instrumented with
    [Obs] spans and metrics; with no trace sink installed the
    instrumentation is inert and the placement is identical.

    With [ckpt], the run checkpoints itself through the session: every
    completed floorplan instance is recorded (with the post-instance
    RNG state), and the "floorplan" and "flipping" stage boundaries
    force snapshots. A session that resumed from a snapshot replays the
    recorded instances instead of recomputing them and recomputes the
    deterministic flipping; because the recorded RNG states are
    restored, the resumed placement is bit-identical to an
    uninterrupted run at any [config.jobs]. *)

val overlap_area : result -> float
(** Total pairwise overlap between placed macros — 0 for a legal
    placement. *)

val placement_bbox_ok : result -> bool
(** Whether every macro lies inside the die (with epsilon tolerance). *)
