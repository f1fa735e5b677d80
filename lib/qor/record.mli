(** Schema-versioned QoR run records (the run ledger).

    One record captures everything needed to compare and inspect a
    macro-placement run after the fact: identity (circuit, flow, seed,
    λ), quality metrics (HPWL, GRC%% overflow, WNS/TNS, dataflow cost),
    macro displacement against the other flows, per-stage wall-clock
    rolled up from {!Obs.Trace}, runtime [Gc] statistics, and the
    geometry (die, placed macros, per-depth block rectangles) needed to
    re-render floorplan snapshots without the original netlist.

    Versioning / compatibility rules: [version] bumps only on breaking
    changes; added fields are backward-compatible and readers must
    ignore unknown fields. [of_json] accepts any record whose version
    is <= the library's, refuses newer ones. Absent optional sections
    read as absent; a present known field of the wrong type or shape
    is an [Error] naming its path ({!Obs.Jsonx} decoders). *)

val schema : string
(** ["hidap-qor"], the [schema] tag of every record. *)

val version : int
(** Current schema version (3). Version 2 added the optional [ckpt]
    resume summary; version 3 adds the optional [cost_breakdown]
    attribution section. Older records read back with the
    corresponding fields [None]. *)

type ckpt_info = Ckpt.Session.summary = {
  resumed_from : string option;
      (** snapshot file the run resumed from; [None] for a run that
          checkpointed but started fresh *)
  snapshots_written : int;
  instances_reused : int;  (** floorplan instances replayed, not re-run *)
}

type stage = {
  stage_name : string;
  total_us : float;
  calls : int;
}

type macro = {
  macro_name : string;
  macro_rect : Geom.Rect.t;
  orient : Geom.Orientation.t;
}

type level = {
  depth : int;
  ht_id : int;
  level_rect : Geom.Rect.t;
  level_macros : int;
}

type qmetrics = {
  wl_um : float;
  grc_pct : float;
  wns_pct : float;  (** <= 0, percentage of the clock period *)
  tns : float;  (** ps, <= 0 *)
  runtime_s : float;
  dataflow_cost : float;
      (** affinity-weighted distance between top-level Gdf blocks; 0
          for a flow that does not floorplan (IndEDA) *)
}

type pool_worker = {
  pw_tasks : int;  (** tasks executed by this worker *)
  pw_steals : int;  (** tasks taken from the shared queue (0 for the caller) *)
  pw_busy_us : float;  (** wall-clock spent inside task bodies *)
}

type perf_info = {
  perf_counters : (string * int) list;
      (** merged {!Obs.Perf} counters, deterministic across job counts *)
  perf_moves_per_s : float;  (** sa.moves / wall_s; 0 when wall_s = 0 *)
  perf_wall_s : float;  (** wall-clock of the placement flow *)
  pool_workers : pool_worker list;
      (** per-domain {!Parexec.pool_stats} utilization (schedule-dependent,
          reported verbatim — never merged into deterministic channels) *)
  pool_wall_us : float;
  pool_maps : int;
  profile : (string * int) list;
      (** collapsed-stack profile from {!Obs.Trace.collapsed}: (stack,
          span self time in µs); empty unless the run wrote
          [--profile-out] *)
}

type pair_contrib = {
  pair_a : string;  (** endpoint name (block, or fixed sibling/port group) *)
  pair_b : string;
  pair_weight : float;  (** affinity weight *)
  pair_wl : float;  (** [weight * manhattan distance] — this pair's share *)
}

type block_contrib = {
  bc_name : string;
  bc_wl : float;  (** sum of [pair_wl] over incident affinity pairs *)
  bc_at_shift : float;  (** raw (unnormalized) target-area shift charged here *)
  bc_am_deficit : float;  (** raw minimum-area deficit charged here *)
  bc_macro_deficit : float;  (** raw macro-fit deficit charged here *)
}

type cost_breakdown = {
  cb_total : float;  (** the annealer's accepted scalar cost *)
  cb_terms : (string * float) list;
      (** named terms in {!Hidap.Layout_gen.term_names} order; summing
          left to right reproduces [cb_total] bit for bit *)
  cb_pairs : pair_contrib list;
      (** per-affinity-pair wirelength shares, in evaluation (loop)
          order — folding [pair_wl] left to right reproduces the
          wirelength term bit for bit; sort at display time *)
  cb_blocks : block_contrib list;  (** one entry per top-level block *)
  cb_term_curves : (string * (float * float) list) list;
      (** per-term best-cost trajectories from the top-level SA:
          (total_moves, term value); empty when not instrumented *)
}
(** Exact cost-term attribution of the top-level floorplan instance
    (DESIGN.md §13). *)

type t = {
  rec_version : int;
  circuit : string;
  flow : string;
  seed : int;
  lambda : float option;
  cells : int;
  macro_count : int;
  qm : qmetrics;
  displacement : (string * float) list;
      (** mean macro displacement vs each other flow of the same run *)
  sa_moves : int;
  sa_curve : (float * float) list;
      (** top-level SA convergence: (total_moves, acceptance_rate) *)
  stages : stage list;
  gc : Obs.Gcstats.snapshot option;
  die : Geom.Rect.t;
  macros : macro list;
  levels : level list;
  degradations : Guard.Supervisor.entry list;
      (** supervisor ledger of the run: every stage fallback taken
          (injected fault, exceeded budget, absorbed failure); empty for
          a clean run. Added in-place as a backward-compatible field:
          old readers ignore it, old records read back as empty. *)
  ckpt : ckpt_info option;
      (** checkpoint/resume summary; [None] when the run did not
          checkpoint (including every pre-v2 record) *)
  perf : perf_info option;
      (** hot-path performance section (perf counters, pool utilization,
          span profile); [None] when the run was not instrumented.
          Added as a backward-compatible field — no version bump. *)
  cost_breakdown : cost_breakdown option;
      (** exact cost-term attribution of the top-level instance (v3);
          [None] for a flow that does not floorplan (IndEDA), a run
          whose top instance was replayed from a checkpoint, and every
          pre-v3 record *)
}

val of_run :
  circuit:string ->
  flat:Netlist.Flat.t ->
  config:Hidap.Config.t ->
  ?spans:Obs.Trace.t ->
  ?displacement:(string * float) list ->
  ?ckpt:ckpt_info ->
  ?perf:perf_info ->
  Evalflow.run ->
  t
(** The record of a measured run ({!Evalflow.judge}), whichever path
    measured it: [hidap place --qor], the serve worker and {!Run.eval}
    all build theirs here, so a placement has one record. Quality
    metrics, runtime, λ, macros, levels, SA curve, [Gc] gauges,
    degradations and the cost breakdown come from the run (its
    [registry] holds the curves and gauges when the run was
    instrumented); stage times roll up [spans]. [displacement], [ckpt] and [perf] are what only some
    callers have, absent by default. *)

val perf_info_json : perf_info -> Obs.Jsonx.t
(** The ["perf"] sub-object of {!to_json}, exposed for standalone
    [--perf-out] documents. *)

val to_json : t -> Obs.Jsonx.t

val of_json : Obs.Jsonx.t -> (t, string) result

val ledger_schema : string
(** ["hidap-qor-ledger"], the [schema] tag of a ledger document. *)

val ledger_json : t list -> Obs.Jsonx.t
(** Records wrapped as a ["hidap-qor-ledger"] document. *)

val write_ledger : string -> t list -> unit

val records_of_json : Obs.Jsonx.t -> (t list, string) result
(** Accepts either a ledger document or a bare record. *)

val load_ledger : string -> (t list, string) result
