(** One job attempt inside a forked worker process.

    The daemon forks (no exec) one child per job attempt; {!exec} is
    the child's entire life and never returns. Containment is the
    OS's: per-job [setrlimit] bounds on address space and CPU, a Linux
    parent-death signal so a SIGKILLed daemon leaks no workers, and a
    fresh process making {!Guard.Budget}'s global deadline/cancel
    cells per-job again — the restriction that serialized PR 9's
    engine. The child talks back over one pipe: the {!Obs.Stream}
    NDJSON progress feed (heartbeats included) ended by a
    [job-attempt-end] status frame, plus its exit status.

    {!classify} is the other half, used by the {e parent}: the total
    mapping from any way a worker can end — clean, classified nonzero,
    signaled, rlimit-killed, watchdog-SIGKILLed — to the verdict the
    engine applies (DESIGN.md §15 exit classification table). *)

(** {1 Exit-code protocol}

    Self-classified ends use the sysexits-style 64+ range so a library
    calling [exit 1]/[exit 2] under us can never impersonate them; any
    other exit status classifies as a lost worker. *)

val exit_done : int
(** 0 *)

val exit_invalid : int
(** 64 — the job can never run (bad circuit/netlist); fail, no retry *)

val exit_timed_out : int
(** 65 — the per-attempt deadline fired inside the flow *)

val exit_parked : int
(** 66 — drain's SIGTERM was honored: checkpointed and parked *)

val exit_transient : int
(** 67 — a classified transient failure; retry within the budget *)

val exit_oom : int
(** 68 — [Out_of_memory] under an address-space rlimit; fail, no retry *)

(** {1 Fault injection}

    The parent decides from its persistent serve.* hit counters
    whether an attempt is sabotaged; the decision rides into the child
    through forked memory. *)
type inject =
  | Inj_none
  | Inj_fail  (** [serve.worker] Raise: die at attempt start (transient) *)
  | Inj_stall of float  (** [serve.worker] Stall: slow, but alive (heartbeats) *)
  | Inj_kill_at_snapshot
      (** [serve.worker_kill] (either action): self-SIGKILL right after
          the attempt writes its first checkpoint snapshot — a point
          inside the placement that does not depend on how fast the job
          runs *)
  | Inj_hang  (** [serve.worker_hang]: silent forever; only the watchdog ends it *)

(** {1 Exit classification (parent side)} *)

type kill_reason =
  | Kill_deadline of float  (** watchdog: ran past the job deadline *)
  | Kill_hang of float  (** watchdog: no pipe bytes for this many seconds *)

type verdict =
  | Done
  | Invalid of string  (** terminal failure: the job can never run *)
  | Timed_out of string
  | Parked of string
  | Rlimit of string  (** deterministic exhaustion: fail, no retry *)
  | Transient of string  (** retry within the job's retry budget *)
  | Lost of string  (** unclassified death: retry, counted as worker-lost *)

val classify :
  Unix.process_status ->
  frame:(string * string) option ->
  killed:kill_reason option ->
  mem_limited:bool ->
  attempt:int ->
  verdict
(** [classify status ~frame ~killed ~mem_limited ~attempt] maps a
    reaped worker to its job's verdict. [frame] is the final
    [job-attempt-end] status frame as [(outcome, detail)] when one
    arrived — its detail is preferred; [killed] records a parent
    watchdog SIGKILL, which outranks the raw status. [mem_limited]
    (an address-space rlimit was armed) reclassifies frameless
    runtime-fatal deaths — SIGABRT or a fatal-error exit — as
    {!Rlimit}: an allocation failing inside the runtime or a domain
    cannot raise [Out_of_memory] cleanly. Total: every process status
    yields a verdict. *)

val signal_name : int -> string
(** Human name for an OCaml [Sys] signal number (["SIGKILL"], …). *)

(** {1 Child main} *)

exception Invalid_job of string

val exec :
  state_dir:string ->
  default_job_jobs:int ->
  flow_faults:Guard.Fault.spec list ->
  mem_mb:int option ->
  cpu_s:int option ->
  inject:inject ->
  job:Job.t ->
  pipe_w:Unix.file_descr ->
  close_fds:Unix.file_descr list ->
  'a
(** Run [job]'s attempt and exit; never returns. Call only in a
    freshly forked child. Arms the parent-death signal, closes
    [close_fds] (the daemon's listener, client connections and sibling
    pipe ends), installs SIGTERM → cooperative cancellation (park),
    redirects stdio to the job's [worker.log], applies rlimits, then
    streams progress to [pipe_w] and runs the flow, exiting with the
    protocol code above. *)
