(** OCaml runtime allocation / collection statistics as metrics.

    A [snapshot] captures [Gc.quick_stat] at one point. [gauges]
    publishes a snapshot to the ambient registry as [gc.*] gauges, gated
    on {!Perf.enabled} like every other shorthand — reading [Gc]
    statistics never perturbs the flow. *)

type snapshot = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

val snapshot : unit -> snapshot

val allocated_words : snapshot -> float
(** Total words allocated: minor + major - promoted (promoted words
    would otherwise be counted twice). *)

val record : ?prefix:string -> Perf.t -> snapshot -> unit
(** Publish as [<prefix>.minor_words] etc. gauges (default prefix
    ["gc"]) on an explicit registry. *)

val gauges : ?prefix:string -> snapshot -> unit
(** [record] on the ambient registry ({!Perf.ambient}), no-op unless
    telemetry is enabled: a task with a registry of its own keeps its
    snapshot there. *)

val to_json : snapshot -> Jsonx.t

val of_json : snapshot Jsonx.decoder
(** The three word counts are required; absent counts read as 0. *)
