(** Metrics registry: named gauges, float histograms and (x, y)
    series. Counters live in {!Perf}, the one counter registry; the
    JSON document of a run ({!to_json}) reports them next to these.

    Histograms keep a {e capped} raw-sample view plus a binned
    [Util.Histogram.t] view (bin = [floor (x / bin_width)]) that is
    cheap to merge and export. Series are append-only ordered point
    lists, used for convergence curves where sample order matters.

    {b Reservoir convention.} Raw-sample storage is bounded by
    {!reservoir_capacity}: the first [capacity] observations are kept
    exactly (and in observation order); past that, Algorithm R keeps a
    uniform subsample, replacing slots via a dedicated RNG seeded from
    the metric {e name}. Count, mean, min, max and the binned view
    remain exact at any count; [to_json]'s p50/p90/p99 are computed
    from the retained subsample and become estimates once a histogram
    exceeds the capacity. Because
    the replacement stream is seeded by name and consumed in
    observation order (and merges re-offer retained samples in task
    order), the retained set is a deterministic function of the
    observation sequence — never of wall-clock or scheduling.

    The gated shorthands ([gauge], [sample], [series]) write
    to the calling domain's {e ambient} registry — [global] unless
    overridden with [with_ambient] — and are no-ops until
    [set_enabled true] (an atomic flag readable from any domain), so
    instrumentation sprinkled through the libraries costs one boolean
    check when observability is off. Explicit registries ignore the
    flag.

    Domain-safety contract: a registry itself is not synchronized. A
    fork-join runner gives each task its own fresh ambient registry via
    [with_ambient] and folds them back with [merge_into] in task order
    at the join point, so enabling metrics never changes — and is never
    changed by — the parallel schedule. *)

type t

val reservoir_capacity : int
(** Retained raw samples per histogram (512). *)

val create : unit -> t

val global : t

val enabled : unit -> bool

val set_enabled : bool -> unit

val ambient : unit -> t
(** The registry the gated shorthands write to on the calling domain
    ([global] unless inside [with_ambient]). *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run [f] with [r] as the calling domain's ambient registry,
    restoring the previous one afterwards (also on exceptions). *)

val reset : t -> unit
(** Drop every metric from the registry. *)

(* ---- operations on an explicit registry --------------------------- *)

val set_gauge : t -> string -> float -> unit

val observe : ?bin_width:float -> t -> string -> float -> unit
(** Record a histogram sample. [bin_width] (default 1.0) is fixed by
    the first observation of a name. *)

val push_series : t -> string -> float -> float -> unit
(** Append an (x, y) point to a named series. *)

(* ---- gated shorthands on the global registry ---------------------- *)

val gauge : string -> float -> unit
val sample : ?bin_width:float -> string -> float -> unit
val series : string -> x:float -> y:float -> unit

(* ---- queries / export --------------------------------------------- *)

val names : t -> string list
(** Sorted names of every registered metric. *)

val gauge_value : t -> string -> float option

val hist_samples : t -> string -> float list
(** Retained raw samples ([] when absent). Up to
    {!reservoir_capacity} observations this is exactly the observation
    sequence in order; beyond that it is the reservoir subsample in
    slot order. *)

val series_points : t -> string -> (float * float) list

val merge : t -> t -> t
(** Fresh registry combining both: gauges take the right value,
    histograms merge exactly (count/sum/min/max/bins) and re-offer the
    right side's retained samples to the left reservoir, series
    concatenate (left points first). On a kind clash the right
    side wins. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src] into [dst] in place, with the same
    combination rules as [merge] ([src] plays the right side). *)

val percentile_opt : float list -> p:float -> float option
(** Linear-interpolated percentile, [p] clamped to [0, 100].

    Boundary convention: the empty list has no percentiles ([None]); a
    single sample [x] is every percentile of its distribution
    ([Some x] for any [p] — the n = 1 instance of the interpolation
    formula, not a special case). *)

val percentile : float list -> p:float -> float
(** [percentile_opt] that raises [Invalid_argument] on an empty list;
    same single-sample convention. *)

val to_json : counters:Perf.t -> t -> Jsonx.t
(** The metrics document of a run (what [--metrics] writes):
    [{"counters": {...}, "gauges": {...}, "histograms": {...},
    "series": {...}}]. ["counters"] is {!Perf.to_json} of [counters];
    the other sections come from the registry, with per-histogram
    count/mean/min/max (exact) and p50/p90/p99 (from the reservoir)
    plus the binned view. *)
