(** The evaluation pipeline shared by all macro-placement flows
    (paper §V).

    For a given macro placement the pipeline places the standard cells
    with the same engine, then measures:
    - WL: total half-perimeter wirelength over all nets (macro pins use
      the flipping pin model, so orientation matters), reported in
      microns and meters;
    - GRC%: RUDY global-routing overflow;
    - WNS% / TNS: static timing on the sequential graph.

    Two flows are provided: IndEDA (wall-packing proxy of the paper's
    commercial tool) and HiDaP (this repository's contribution), whose
    λ sweep is the program's only one: one {!Hidap.prepare}d design,
    one {!Hidap.place_design} and {!measure} per λ, fanned across
    [config.jobs] domains, the first lowest WL kept — bit-identical for
    every job count. The paper's third column, expert hand floorplans,
    has no stand-in: WL is normalised to the best known result instead
    ({!normalized_wl}). *)

type flow_kind = IndEDA | HiDaP

val flow_name : flow_kind -> string

type metrics = {
  wl_um : float;
  wl_m : float;
  grc_pct : float;
  wns_pct : float;  (** <= 0; percentage of the clock period *)
  tns : float;  (** ps, <= 0 *)
  runtime_s : float;  (** flow runtime (macro placement only) *)
}

type run = {
  kind : flow_kind;
  metrics : metrics;
  macros : Cellplace.macro_place list;
  placement : Cellplace.t;
  lambda_used : float option;  (** HiDaP only *)
  sa_moves : int;
      (** HiDaP only: the winning λ's [Hidap.result.sa_moves] (0 for
          the other flows) *)
  sweep_trace : (float * float) list;
      (** HiDaP only: every (λ, measured WL) of the sweep, losing
          candidates included ([] for the other flows) *)
  winner_metrics : Obs.Metrics.t option;
      (** HiDaP only: the winning candidate's own metrics (its SA
          curves); every candidate's are also merged into the ambient
          registry *)
}

val measure :
  flat:Netlist.Flat.t ->
  gseq:Seqgraph.t ->
  ports:Hidap.Port_plan.t ->
  die:Geom.Rect.t ->
  macros:Cellplace.macro_place list ->
  metrics * Cellplace.t
(** Runtime field is 0; the flow runners fill it in. *)

val run_flow :
  flow_kind ->
  ?config:Hidap.Config.t ->
  flat:Netlist.Flat.t ->
  gseq:Seqgraph.t ->
  ports:Hidap.Port_plan.t ->
  die:Geom.Rect.t ->
  unit ->
  run
(** The HiDaP flow prepares its design from [gseq], [ports] and [die],
    so the metrics read the floorplanner's Gseq, and measures each
    candidate once. *)

type circuit_result = {
  circuit : string;
  cells : int;
  macro_count : int;
  runs : run list;  (** IndEDA, HiDaP order *)
}

val run_all : ?config:Hidap.Config.t -> name:string -> Netlist.Flat.t -> circuit_result
(** Runs both flows on the elaborated netlist, on the same die with the
    same Gseq and port plan. *)

val best_known_wl : circuit_result -> float
(** The "best known" WL of a circuit: the minimum [wl_um] over
    [runs]. It is also the minimum over every candidate the flows
    measured, because HiDaP's λ sweep keeps the candidate of lowest
    measured WL, so a losing λ can never be lower than the winner. The
    reference is taken over K = 1 seed (the config's). [infinity] when
    [runs] is empty. *)

val normalized_wl : circuit_result -> flow_kind -> float
(** WL relative to {!best_known_wl} of the same circuit: >= 1.0 for
    every flow, and exactly 1.0 for the best one. *)

val density_map : run -> flat:Netlist.Flat.t -> bins:int -> float array array

val macro_displacement : run -> run -> float
(** Mean distance between the two runs' centres of the same macro
    (macros present in only one run are skipped; 0 when none match).
    Used by the QoR ledger to report how far a flow's placement sits
    from the baseline flows'. *)
