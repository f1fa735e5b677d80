(** The counter registry: every counter of the program.

    Each counter is registered below as a fixed integer {!id} indexing
    a flat [int array], so bumping a counter is two array accesses and
    the gated shorthand {!add} costs exactly one branch (an atomic
    flag load) when disabled. No string is hashed and nothing is
    allocated, which is what the annealing inner loop needs. Ids are
    appended, never reordered, so an id's index is stable. {!Metrics}
    holds the other telemetry kinds (gauges and series), and
    its JSON document reports this registry as its ["counters"].

    {b Determinism contract} (DESIGN.md §9/§12): counters never touch
    any RNG, so enabling them cannot change a placement. The registry
    is ambient and domain-local: a fork-join runner ({!Parexec}) gives
    each task a fresh array via {!with_ambient} and folds the results
    back with {!merge_into} in {e task order} at the join point, so the
    merged totals are bit-identical for every [--jobs] value. Counters
    whose value would depend on the schedule (per-worker task or steal
    counts) live in [Parexec.pool_stats], not here. *)

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

val all_ids : id list
(** All registered ids in registration order. *)

(** {1 Enable gate} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Flip the global atomic gate read by {!add}. Flip it only between
    runs, not while a pool is executing tasks. *)

(** {1 Registries} *)

type t
(** A flat counter array. Not safe to share between domains; each
    domain (or task) writes its own and the owner merges. *)

val create : unit -> t

val global : t
(** The default ambient registry of every domain. *)

val ambient : unit -> t

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run [f] with a given ambient registry on the calling domain,
    restoring the previous one afterwards (even on exceptions). *)

val get : t -> id -> int

val bump : t -> id -> int -> unit
(** Unchecked increment on a registry the caller already holds — the
    hot-path primitive ([a.(i) <- a.(i) + n], no gate). *)

val add : id -> int -> unit
(** Gated shorthand: bump the ambient registry when {!enabled}, else do
    nothing (one branch). *)

val reset : t -> unit

val snapshot : t -> int array
(** Copy of the current counts, indexed by id. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s counts into [dst]. Callers must
    merge in task order (the totals commute, but the convention keeps
    the contract uniform with {!Metrics.merge_into}). *)

val to_assoc : t -> (string * int) list
(** [(name, count)] for every registered id, in registration order. *)

val to_json : t -> Jsonx.t
