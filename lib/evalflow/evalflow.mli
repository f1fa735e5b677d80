(** The evaluation pipeline shared by all macro-placement flows
    (paper §V).

    For a given macro placement the pipeline places the standard cells
    with the same engine, then measures:
    - WL: total half-perimeter wirelength over all nets (macro pins use
      the flipping pin model, so orientation matters), reported in
      microns and meters;
    - GRC%: RUDY global-routing overflow;
    - WNS% / TNS: static timing on the sequential graph.

    A flow differs from another only in the candidate placements it
    proposes: IndEDA (wall-packing proxy of the paper's commercial
    tool) proposes one; HiDaP (this repository's contribution) prepares
    one design ({!Hidap.prepare}) and proposes one {!Hidap.place_design}
    per λ of the sweep, the program's only one. One runner places and
    {!measure}s every candidate once ({!judge}, the one constructor of
    a {!run}, which [hidap place --qor] also goes through), fanned
    across [config.jobs] domains, and keeps the first lowest WL in
    proposal order — bit-identical for every job count. The paper's
    third column, expert hand floorplans, has no stand-in: WL is
    normalised to the best known result instead ({!normalized_wl}). *)

type flow_kind = IndEDA | HiDaP

val flow_name : flow_kind -> string

val flows : flow_kind list
(** The flows {!run_all} runs, in order: IndEDA, HiDaP. *)

type metrics = {
  wl_um : float;
  wl_m : float;
  grc_pct : float;
  wns_pct : float;  (** <= 0; percentage of the clock period *)
  tns : float;  (** ps, <= 0 *)
  runtime_s : float;
      (** the wall time to produce and measure every candidate the run
          judged, a flow's preparation included; 0 from {!measure} *)
}

type placed = {
  macros : Cellplace.macro_place list;
  gseq : Seqgraph.t;
  ports : Hidap.Port_plan.t;  (** the Gseq and port plan the metrics read *)
  sa_moves : int;  (** 0 for a placer that anneals nothing *)
  levels : Hidap.Floorplan.level_info list;  (** [] for a placer that does not floorplan *)
  top : Hidap.Floorplan.instance_snapshot option;
}
(** What a candidate's placer hands the runner: its macros, and the
    floorplan they came from. *)

val hidap_placed : Hidap.result -> placed

type run = {
  kind : flow_kind;
  metrics : metrics;
  macros : Cellplace.macro_place list;
  placement : Cellplace.t;
  lambda_used : float option;  (** the winning candidate's λ; [None] for IndEDA *)
  sa_moves : int;  (** the winning candidate's SA moves (0 when it anneals nothing) *)
  levels : Hidap.Floorplan.level_info list;
      (** the winning candidate's floorplan instances; [] for IndEDA *)
  top : Hidap.Floorplan.instance_snapshot option;
      (** the winning candidate's top-level instance; [None] for IndEDA
          and for a top instance replayed from a checkpoint *)
  sweep_trace : (float * float) list;
      (** (λ, measured WL) of every candidate that has a λ, in proposal
          order, losing ones included *)
  registry : Obs.Perf.t;
      (** the winning candidate's own telemetry (its counters, SA
          curves and GC gauges); every candidate's are also merged into
          the ambient registry *)
  degradations : Guard.Supervisor.entry list;
      (** the part of the active {!Guard.Supervisor.with_run} ledger
          recorded while this flow ran *)
}

val measure :
  flat:Netlist.Flat.t ->
  gseq:Seqgraph.t ->
  ports:Hidap.Port_plan.t ->
  die:Geom.Rect.t ->
  macros:Cellplace.macro_place list ->
  metrics * Cellplace.t
(** Runtime field is 0; {!judge} fills it in. *)

val judge :
  flow_kind ->
  flat:Netlist.Flat.t ->
  die:Geom.Rect.t ->
  lambda:float option ->
  (unit -> placed) ->
  run
(** The one constructor of a run: [place ()] in a telemetry registry
    of its own (the run's [registry], folded into the ambient one on
    every exit, a raising [place] included), then one {!measure}.
    [runtime_s] is the wall time of both; the run has no
    [sweep_trace] and no [degradations]. *)

val run_flow :
  flow_kind ->
  ?config:Hidap.Config.t ->
  flat:Netlist.Flat.t ->
  gseq:Seqgraph.t ->
  ports:Hidap.Port_plan.t ->
  die:Geom.Rect.t ->
  unit ->
  run
(** One flow: its candidates, each placed and measured once, the winner
    kept. HiDaP prepares its design from [gseq], [ports] and [die], so
    the metrics read the floorplanner's Gseq. *)

type circuit_result = {
  circuit : string;
  cells : int;
  macro_count : int;
  runs : run list;  (** in {!flows} order *)
}

val run_all : ?config:Hidap.Config.t -> name:string -> Netlist.Flat.t -> circuit_result
(** Runs every flow of {!flows} on the elaborated netlist, on the same
    die with the same Gseq and port plan. *)

val best_known_wl : circuit_result -> float
(** The "best known" WL of a circuit: the minimum [wl_um] over
    [runs]. It is also the minimum over every candidate the flows
    measured, because each flow keeps its candidate of lowest measured
    WL, so a losing candidate can never be lower than the winner. The
    reference is taken over K = 1 seed (the config's). [infinity] when
    [runs] is empty. *)

val normalized_wl : circuit_result -> run -> float
(** The run's WL relative to {!best_known_wl} of its circuit: >= 1.0
    for every flow, and exactly 1.0 for the best one. *)

val run_of : circuit_result -> flow_kind -> run
(** The run of one flow. Raises [Not_found] if the result has none. *)

val density_map : run -> flat:Netlist.Flat.t -> bins:int -> float array array

val macro_displacement : run -> run -> float
(** Mean distance between the two runs' centres of the same macro
    (macros present in only one run are skipped; 0 when none match).
    Used by the QoR ledger to report how far a flow's placement sits
    from the baseline flows'. *)
