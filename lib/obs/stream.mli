(** Versioned NDJSON progress event stream.

    The live feed behind [--progress-file]/[--progress-fd] and each
    [hidap serve] worker's progress pipe: one JSON object per line, written and flushed
    atomically under a mutex so worker domains can report concurrently
    without interleaving. Every line is self-describing:

    {v
    {"schema":"hidap-progress","version":2,"event":"...","t_us":...}
    v}

    The full event vocabulary and field tables are specified in
    DESIGN.md §12; the schema is versioned exactly like the QoR
    record — adding fields is backward-compatible, anything else bumps
    [version], and readers must ignore unknown fields and refuse newer
    versions.

    Emission costs one atomic load when disabled and never touches any
    RNG, so enabling the stream cannot change a placement. *)

val schema : string
(** ["hidap-progress"] *)

val version : int
(** 2 — v2 added the field-additive [cost_terms] object to
    [sa-progress] (a v1 reader that ignores unknown fields parses every
    v2 line unchanged). *)

val enabled : unit -> bool

val enable : ?heartbeat_s:float -> ?close_on_disable:bool -> out_channel -> unit
(** Route events to [oc] and, when [heartbeat_s > 0] (default 1.0),
    spawn a heartbeat domain emitting an event on that period. No-op
    when already enabled. Call from the main domain. *)

val disable : unit -> unit
(** Stop {e and join} the heartbeat domain, flush, detach (and close
    the channel when [close_on_disable] was set). The heartbeat waits on
    a pipe that [disable] writes to, so it stops at once, not at the end
    of its period. Safe on exception paths: flush/close failures are
    swallowed, the call is idempotent, and the close happens under the
    sink mutex so an [emit] racing [disable] either writes its whole
    line before the close or skips — an NDJSON line is never torn and
    the channel is never written after close. *)

val emit : string -> (string * Jsonx.t) list -> unit
(** [emit event fields] writes one line with the standard envelope
    ([schema]/[version]/[event]/[t_us]) followed by [fields]. No-op
    when disabled. The typed helpers below are the documented
    vocabulary — prefer them. *)

(** {1 Event vocabulary (DESIGN.md §12)} *)

val heartbeat : unit -> unit

val run_start : circuit:string -> seed:int -> jobs:int -> unit

val run_end : status:string -> unit
(** [status] is ["ok"], ["degraded"] or ["failed"]. *)

val stage_start : string -> unit

val stage_end : string -> dur_us:float -> ok:bool -> unit

val with_stage : string -> (unit -> 'a) -> 'a
(** Bracket [f] with stage-start/stage-end (emitting [ok:false] and
    re-raising when [f] raises). Just [f ()] when disabled. *)

val sa_progress :
  instance:int ->
  ?instances:int ->
  temperature:float ->
  best_cost:float ->
  ?cost_terms:(string * float) list ->
  moves:int ->
  moves_per_s:float ->
  unit ->
  unit
(** Per completed floorplan instance: 1-based [instance] counter,
    total [instances] when known (emitted as [null] otherwise), final
    plateau temperature, best cost, its named term breakdown
    ([cost_terms], an object of term name -> value, [null] when not
    supplied), SA moves spent and the instance's moves/second. *)

val checkpoint : seq:int -> file:string -> unit

val degradation : stage:string -> reason:string -> unit
