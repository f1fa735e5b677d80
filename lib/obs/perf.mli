(** The telemetry registry of a run: counters, gauges and series.

    Each counter is registered below as a fixed integer {!id} indexing
    a flat [int array], so bumping a counter is two array accesses and
    the gated shorthand {!add} costs exactly one branch (an atomic
    flag load) when disabled. No string is hashed and nothing is
    allocated, which is what the annealing inner loop needs. Ids are
    appended, never reordered, so an id's index is stable.

    Next to the counters a registry holds named gauges and series. A
    gauge holds the last value set. A series is an append-only ordered
    list of (x, y) points, used for convergence curves where sample
    order matters; every point is kept.

    One atomic gate ({!set_enabled}) switches every gated shorthand
    ({!add}, {!gauge}, {!series}); they write to the calling domain's
    {e ambient} registry, {!global} unless overridden with
    {!with_ambient}. Explicit registries ignore the gate.

    {b Determinism contract} (DESIGN.md §9/§12): telemetry never
    touches any RNG, so enabling it cannot change a placement. A
    registry is not synchronized: a fork-join runner ({!Parexec}) gives
    each task a fresh registry via {!with_ambient} and folds the
    results back with {!merge_into} in {e task order} at the join
    point, so the merged registry is bit-identical for every [--jobs]
    value. Counters whose value would depend on the schedule
    (per-worker task or steal counts) live in [Parexec.pool_stats], not
    here. *)

type id = private int
(** Index of a registered counter. Only the values below exist. *)

val sa_moves : id
(** SA proposals evaluated (schedule moves, excluding calibration). *)

val sa_accepts : id
(** SA proposals accepted. *)

val sa_rejects : id
(** SA proposals rejected ([sa_moves - sa_accepts]). *)

val sa_plateaus : id
(** Temperature plateaus completed. *)

val sa_reheats : id
(** Additional annealing starts beyond the first for an instance —
    each restarts the schedule from a fresh calibrated temperature. *)

val cost_evals : id
(** Cost-function evaluations, including calibration samples, the
    initial-state evaluation and every expression an exact floorplan
    instance scores. *)

val fp_instances : id
(** Floorplan instances laid out, annealed or solved exactly. *)

val fp_sa_moves : id
(** SA moves of the floorplan instances ([floorplan.sa_moves]); a
    placement's total is its [Hidap.result.sa_moves]. *)

val sc_combines : id
(** Shape-curve combinations annealed ([shape_curves.combines]). *)

val sc_sa_moves : id
(** SA moves of the shape-curve combinations ([shape_curves.sa_moves]). *)

val hidap_places : id
(** Completed [Hidap.place] runs ([hidap.places]). *)

val cellplace_runs : id
(** Standard-cell placements ([cellplace.runs]). *)

val netlist_elaborations : id
(** Netlist elaborations ([netlist.elaborations]). *)

val hnl_files_parsed : id
(** HNL files parsed ([hnl.files_parsed]). *)

val hnl_bytes_parsed : id
(** HNL source bytes parsed ([hnl.bytes_parsed]). *)

val n_ids : int

(** {1 Enable gate} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Flip the global atomic gate read by {!add}, {!gauge} and
    {!series}. Flip it only between runs, not while a pool is executing
    tasks. *)

(** {1 Registries} *)

type t
(** Counters, gauges and series. Not safe to share between domains;
    each domain (or task) writes its own and the owner merges. *)

val create : unit -> t

val global : t
(** The default ambient registry of every domain. *)

val ambient : unit -> t

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run [f] with a given ambient registry on the calling domain,
    restoring the previous one afterwards (even on exceptions). *)

val reset : t -> unit
(** Zero every counter and drop every gauge and series. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src] into [dst] in place: counters add,
    gauges take [src]'s value, series append [src]'s points after
    [dst]'s. On a gauge/series name clash [src] wins. Callers merge in
    task order. *)

val to_json : t -> Jsonx.t
(** The metrics document of a run (what [--metrics] writes):
    [{"counters": {...}, "gauges": {...}, "series": {...}}], counters
    in registration order, gauges and series by name, a series as its
    [[x, y]] points in order. *)

(** {1 Counters} *)

val get : t -> id -> int

val bump : t -> id -> int -> unit
(** Unchecked increment on a registry the caller already holds — the
    hot-path primitive, no gate. *)

val add : id -> int -> unit
(** Gated shorthand: bump the ambient registry when {!enabled}, else do
    nothing (one branch). *)

val snapshot : t -> int array
(** Copy of the current counts, indexed by id. *)

val to_assoc : t -> (string * int) list
(** [(name, count)] for every registered id, in registration order. *)

(** {1 Gauges and series} *)

val set_gauge : t -> string -> float -> unit

val push_series : t -> string -> float -> float -> unit
(** Append an (x, y) point to a named series. *)

val gauge : string -> float -> unit
(** Gated shorthand for {!set_gauge} on the ambient registry. *)

val series : string -> x:float -> y:float -> unit
(** Gated shorthand for {!push_series} on the ambient registry. *)

val names : t -> string list
(** Sorted names of every gauge and series. *)

val gauge_value : t -> string -> float option

val series_points : t -> string -> (float * float) list
