(** One run's checkpointing session, threaded through the flow.

    A session owns a {!Store.t} plus the cumulative {!State.t} of the
    run so far. The flow reports completed work ({!instance_done},
    {!flip_done}, {!stage_done}); the session appends it to the state
    and snapshots the whole state every [every] completed units, and
    unconditionally at stage boundaries. On resume, the flow asks
    before each unit of work ({!lookup_instance}, {!lookup_flip})
    whether a finished result is already on record; a hit skips the
    computation and — for floorplan instances — restores the RNG to the
    recorded post-instance state, which is what keeps a resumed run
    bit-identical to an uninterrupted one at any [--jobs] count.

    Snapshot writes are supervised under the [ckpt_write] stage: an I/O
    failure (or injected fault) degrades to "no checkpoint written" and
    is recorded in the ledger, never killing the run. Resume honors the
    [ckpt_load_corrupt] site by corrupting the newest snapshot and
    re-loading, driving the CRC-rejection rollback path. *)

type t

type summary = {
  resumed_from : string option;  (** snapshot file resumed from *)
  snapshots_written : int;
  instances_reused : int;
}

val start :
  ?keep:int ->
  ?every:int ->
  ?on_save:(unit -> unit) ->
  dir:string ->
  resume:bool ->
  State.fingerprint ->
  (t, Guard.Diag.t) result
(** Open [dir] and begin a session. With [resume:false] a new snapshot
    sequence starts (existing snapshots are ignored until [gc]). With
    [resume:true] the newest valid snapshot is adopted when its
    fingerprint matches ([ckpt-mismatch] error otherwise); an empty or
    wholly invalid store resumes from scratch. [every] (default 1) is
    the number of completed floorplan instances between periodic
    snapshots; [keep] (default 4) the store retention window.
    [on_save] runs after each snapshot is written (default: nothing). *)

val lookup_instance : t -> nh:int -> n_blocks:int -> State.instance_entry option

val instance_done :
  t ->
  nh:int ->
  depth:int ->
  n_blocks:int ->
  rects:Geom.Rect.t array ->
  sa_moves:int ->
  rng_after:int64 ->
  unit

val lookup_flip : t -> State.flip_entry option

val flip_done : t -> State.flip_entry -> unit

val stage_done : t -> string -> unit
(** Record a completed stage boundary and write a stage snapshot.
    Idempotent per stage name (resumed stages do not re-snapshot). *)

val save_now : t -> stage:bool -> unit
(** Force a snapshot of the current state. *)

val summary : t -> summary

val resumed_from : t -> string option

val state : t -> State.t
(** The cumulative state (for tests and [hidap ckpt inspect]). *)
