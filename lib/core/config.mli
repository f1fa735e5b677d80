(** Tool parameters, with the paper's defaults. *)

type t = {
  lambda : float;
      (** blend between block flow and macro flow in the affinity
          (paper §IV-D); the evaluation tries [lambda_sweep] and keeps
          the best wirelength *)
  lambda_sweep : float list;  (** paper §V: 0.2 / 0.5 / 0.8 *)
  k : int;  (** latency decay exponent in [score(h, k)] *)
  open_frac : float;
      (** declustering: macro-free nodes above this fraction of the
          instance area are opened (40%) *)
  min_frac : float;
      (** declustering: nodes below this fraction (and macro-free)
          become glue (1%) *)
  bit_threshold : int;  (** Gseq array width filter (§IV-D step 4) *)
  utilization : float;  (** die area = cell area / utilization *)
  at_weight : float;  (** layout penalty for target-area shifts *)
  am_weight : float;  (** layout penalty for minimum-area deficits *)
  macro_weight : float;  (** layout penalty for macro-area deficits *)
  layout_sa : Anneal.Sa.params;  (** per-instance layout annealing *)
  curve_sa : Anneal.Sa.params;  (** shape-curve generation annealing *)
  seed : int;
  sa_starts : int;
      (** independent annealing starts per floorplan instance: the
          affinity-greedy chain alone for 1, plus its reversal for 2,
          plus [sa_starts - 2] random shuffles beyond that (values
          below 1 are clamped to 1) *)
  jobs : int;
      (** worker domains for the annealing starts and the lambda sweep
          (default [Parexec.default_jobs ()]); results are bit-identical
          for every value *)
  faults : Guard.Fault.spec list;
      (** fault-injection specs armed for the run (default none); see
          {!Guard.Fault} for the registered sites *)
  budgets : (string * float) list;
      (** per-stage wall-clock budgets in seconds (default none); a
          stage past its budget degrades to its fallback — see
          {!Guard.Budget} *)
}

val default : t

val with_lambda : t -> float -> t
(** Override both [lambda] and [lambda_sweep] with a single value. *)
