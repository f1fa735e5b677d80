(** Supervisor for the daemon's forked worker processes.

    A fixed array of worker slots driven entirely from the daemon's
    single-domain select loop: {!spawn} forks a child per job attempt,
    {!handle_readable} consumes its NDJSON progress pipe (every byte
    refreshes the liveness stamp; the final [job-attempt-end] status
    frame is captured), {!reap} collects exit statuses via
    non-blocking [waitpid], and {!watchdog} SIGKILLs children that
    outran their deadline or went silent.

    The parent must stay fork-safe: OCaml 5 refuses [Unix.fork] in a
    process that has {e ever} created a domain, so nothing on the
    daemon side may call [Domain.spawn] — parallelism belongs to the
    children. *)

(** One running child. Concrete so the engine can classify it after
    {!reap} hands it back. *)
type running = {
  pid : int;
  job : Job.t;
  pipe_r : Unix.file_descr;
  rbuf : Buffer.t;
  started_s : float;
  mutable last_io_s : float;  (** last byte seen on the pipe *)
  mutable frame : (string * string) option;
      (** final [job-attempt-end] frame as [(outcome, detail)] *)
  mutable killed : Worker.kill_reason option;  (** watchdog SIGKILL *)
  mutable drain_killed : bool;  (** SIGKILLed by drain's hard phase *)
  mutable status : Unix.process_status option;
  mutable eof : bool;
}

type t

val create : size:int -> stall_s:float -> deadline_grace_s:float -> t
(** [size] slots (clamped to ≥ 1). [stall_s]: SIGKILL a child whose
    pipe has been silent this long (heartbeats arrive every 0.5 s, so
    this detects wedged workers, not slow jobs). [deadline_grace_s]:
    slack past a job's own deadline before the watchdog concludes the
    child missed it and kills from outside. *)

val size : t -> int

val busy : t -> bool
(** Some slot is running. *)

val idle_slots : t -> int

type spawn_result =
  | Spawned of int  (** child pid *)
  | No_slot
  | Fork_failed of string  (** pipe/fork error; the job was not started *)

val spawn :
  t ->
  job:Job.t ->
  extra_close:Unix.file_descr list ->
  child:(pipe_w:Unix.file_descr -> close_fds:Unix.file_descr list -> unit) ->
  spawn_result
(** Fork a child for [job] into a free slot. [child] runs in the
    forked process and must never return (a {!Worker.exec} call); it
    receives the pipe's write end plus every descriptor it must close
    — [extra_close] (the engine's listener and client connections)
    and the sibling pipes the fork duplicated. *)

val pipe_fds : t -> Unix.file_descr list
(** Read ends to include in the select set (running, pre-EOF slots). *)

val awaiting_reap : t -> bool
(** Some child's pipe is at EOF but {!reap} has not collected its exit
    status yet. A worker closes its pipe a moment before it exits, so
    its verdict is imminent: the engine polls again soon instead of
    sleeping out its select tick. *)

val handle_readable :
  t -> Unix.file_descr -> on_event:(Job.t -> Obs.Jsonx.t -> unit) -> unit
(** Drain one readable pipe; [on_event] sees every parsed NDJSON line
    (for relay to watch clients). Unknown fds are ignored. *)

val reap : t -> on_event:(Job.t -> Obs.Jsonx.t -> unit) -> running list
(** Non-blocking: collect exit statuses, finish draining pipes, and
    return every child that is fully gone (reaped {e and} pipe at
    EOF, so captured frames cannot race the verdict). Returned slots
    are free again. *)

val watchdog : t -> now:float -> (Job.t * Worker.kill_reason) list
(** SIGKILL deadline-overruns and silent children; returns what was
    killed and why. Each child is killed at most once. *)

val term_all : t -> unit
(** Drain, soft phase: SIGTERM every running child (cooperative
    checkpoint-and-park). *)

val kill_all : t -> unit
(** Drain, hard phase: SIGKILL survivors, marking them
    [drain_killed] so the engine re-pends rather than retries them. *)

val views : t -> now:float -> Proto.worker_view list
(** One {!Proto.worker_view} per slot, for [stats]. *)
