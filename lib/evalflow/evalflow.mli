(** The evaluation pipeline shared by all macro-placement flows
    (paper §V).

    For a given macro placement the pipeline places the standard cells
    with the same engine, then measures:
    - WL: total half-perimeter wirelength over all nets (macro pins use
      the flipping pin model, so orientation matters), reported in
      microns and meters;
    - GRC%: RUDY global-routing overflow;
    - WNS% / TNS: static timing on the sequential graph.

    The three flows of the paper are provided: IndEDA (wall-packing
    proxy), HiDaP (this repository's contribution, best wirelength of
    the λ sweep) and handFP (expert-oracle proxy). *)

type flow_kind = IndEDA | HiDaP | HandFP

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
      (** HiDaP only: every (λ, objective) of the sweep, losing runs
          included ([] for the other flows) *)
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

type circuit_result = {
  circuit : string;
  cells : int;
  macro_count : int;
  runs : run list;  (** IndEDA, HiDaP, handFP order *)
}

val run_all : ?config:Hidap.Config.t -> name:string -> Netlist.Flat.t -> circuit_result
(** Runs the three flows on the elaborated netlist, on the same die
    with the same port plan. *)

val normalized_wl : circuit_result -> flow_kind -> float
(** WL relative to the handFP run of the same circuit. *)

val density_map : run -> flat:Netlist.Flat.t -> bins:int -> float array array

val macro_displacement : run -> run -> float
(** Mean distance between the two runs' centres of the same macro
    (macros present in only one run are skipped; 0 when none match).
    Used by the QoR ledger to report how far a flow's placement sits
    from the baseline flows'. *)
