(** HiDaP — Hierarchical Dataflow Placement (top flow, paper
    Algorithm 1).

    [place] runs the whole pipeline on an elaborated netlist: hierarchy
    tree, shape curves SΓ, recursive block floorplanning, macro flipping.
    [place_sweep] replicates the paper's evaluation protocol: one run per
    λ in the configured sweep, keeping the result ranked best by a
    caller-supplied objective (the paper uses post-placement
    wirelength). *)

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
(** Die sized from total cell area, utilization and aspect ratio. *)

val place :
  ?config:Config.t -> ?die:Geom.Rect.t -> ?ckpt:Ckpt.Session.t -> Netlist.Flat.t -> result
(** Single run with [config.lambda]. The flow is instrumented with
    [Obs] spans and metrics; with no trace sink installed the
    instrumentation is inert and the placement is identical.

    With [ckpt], the run checkpoints itself through the session: every
    completed floorplan instance is recorded (with the post-instance
    RNG state), the flipping result is recorded, and the "floorplan"
    and "flipping" stage boundaries force snapshots. A session that
    resumed from a snapshot replays the recorded work instead of
    recomputing it; because the recorded RNG states are restored, the
    resumed placement is bit-identical to an uninterrupted run at any
    [config.jobs]. *)

type sweep = {
  best : result;  (** run with the smallest objective *)
  best_objective : float;
  sweep_trace : (float * float) list;
      (** every (λ, objective) evaluated, in sweep order — losing runs
          included so callers can report the whole sweep *)
}

val place_sweep :
  ?config:Config.t ->
  ?die:Geom.Rect.t ->
  objective:(result -> float) ->
  Netlist.Flat.t ->
  sweep
(** Runs once per λ in [config.lambda_sweep] and keeps the result
    ranked best by [objective] (ties to the earliest λ), recording
    every λ's objective in [sweep_trace]. The runs execute across up to
    [config.jobs] domains; the outcome — placements, objective, trace
    and telemetry — is bit-identical for every job count. *)

val overlap_area : result -> float
(** Total pairwise overlap between placed macros — 0 for a legal
    placement. *)

val placement_bbox_ok : result -> bool
(** Whether every macro lies inside the die (with epsilon tolerance). *)
