(** Committed QoR baselines and the regression gate.

    A baselines document stores, per (circuit, flow), the gated quality
    metrics of a known-good run plus per-metric relative tolerances.
    The comparator classifies each new {!Record.t} as improved,
    unchanged or regressed: a metric's signed relative delta is its
    "badness" (positive = worse, direction-aware — WNS/TNS are
    better when larger), and a run regresses as soon as any gated
    metric's badness exceeds its tolerance. Runtime is never gated
    (machine-dependent); near-zero baselines divide by a per-metric
    absolute floor instead of the baseline value. *)

val schema : string

val version : int

type entry = {
  circuit : string;
  flow : string;
  qm : Record.qmetrics;  (** [runtime_s] is carried but never gated *)
}

type t = {
  tolerances : (string * float) list;
  entries : entry list;
}

type verdict = Improved | Unchanged | Regressed

val verdict_name : verdict -> string

type metric_delta = {
  metric : string;
  baseline : float;
  current : float;
  rel_delta : float;
      (** signed badness relative to the baseline: positive means
          worse, already direction-corrected for WNS/TNS *)
  tolerance : float;
  metric_verdict : verdict;
}

type comparison = {
  c_circuit : string;
  c_flow : string;
  deltas : metric_delta list;
  run_verdict : verdict;
  missing_baseline : bool;
      (** true when the baselines file has no entry for this
          (circuit, flow); the run then counts as [Unchanged] so new
          circuits do not fail the gate before a baseline exists *)
  missing_run : bool;
      (** true when a baseline entry has no record although the run
          covered its circuit: the flow stopped producing records. Such
          a comparison has no deltas and counts as [Regressed]. *)
}

val compare_record : t -> Record.t -> comparison

val compare_all : t -> Record.t list -> comparison list
(** One comparison per record, then one [missing_run] comparison per
    baseline entry that has no record but whose circuit some record
    covers. Entries of circuits no record covers are ignored, so a run
    over a subset of the baseline's circuits can still pass. *)

val overall : comparison list -> verdict
(** [Regressed] dominates, then [Improved], else [Unchanged]. *)

val of_records : ?tolerances:(string * float) list -> Record.t list -> t
(** Build a fresh baselines document from records
    ([--update-baselines]). *)

val to_json : t -> Obs.Jsonx.t

val of_json : Obs.Jsonx.t -> (t, string) result

val write : string -> t -> unit

val load : string -> (t, string) result

val render : comparison list -> string
(** Human-readable verdict table, one line per comparison (NO BASELINE
    and NO RUN lines included) plus the out-of-tolerance metric deltas
    and an overall verdict line. *)
