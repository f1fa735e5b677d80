(** Metrics registry: named gauges and (x, y) series. Counters live in
    {!Perf}, the one counter registry; the JSON document of a run
    ({!to_json}) reports them next to these.

    A gauge holds the last value set. A series is an append-only
    ordered point list, used for convergence curves where sample order
    matters; a distribution is read off its points, every one of which
    is kept.

    The gated shorthands ([gauge], [series]) write to the calling
    domain's {e ambient} registry — [global] unless overridden with
    [with_ambient] — and are no-ops until [set_enabled true] (an atomic
    flag readable from any domain), so instrumentation sprinkled
    through the libraries costs one boolean check when observability
    is off. Explicit registries ignore the flag.

    Domain-safety contract: a registry itself is not synchronized. A
    fork-join runner gives each task its own fresh ambient registry via
    [with_ambient] and folds them back with [merge_into] in task order
    at the join point, so enabling metrics never changes — and is never
    changed by — the parallel schedule. *)

type t

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

val push_series : t -> string -> float -> float -> unit
(** Append an (x, y) point to a named series. *)

(* ---- gated shorthands on the global registry ---------------------- *)

val gauge : string -> float -> unit
val series : string -> x:float -> y:float -> unit

(* ---- queries / export --------------------------------------------- *)

val names : t -> string list
(** Sorted names of every registered metric. *)

val gauge_value : t -> string -> float option

val series_points : t -> string -> (float * float) list

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src] into [dst] in place: gauges take
    [src]'s value, series append [src]'s points after [dst]'s. On a
    kind clash [src] wins. *)

val to_json : counters:Perf.t -> t -> Jsonx.t
(** The metrics document of a run (what [--metrics] writes):
    [{"counters": {...}, "gauges": {...}, "series": {...}}].
    ["counters"] is {!Perf.to_json} of [counters]; the other sections
    come from the registry, a series as its [[x, y]] points in order. *)
