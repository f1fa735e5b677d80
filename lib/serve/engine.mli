(** The hidap serve daemon engine.

    One process, one domain, many worker processes. The daemon runs a
    single-domain select loop (accept, NDJSON framing, request
    handling, progress relay, spawn/reap/watchdog), and every job
    attempt executes in a forked child ({!Worker.exec}) supervised
    through {!Pool}. Jobs are crash-contained — a worker can segfault,
    OOM, spin or be SIGKILLed and the daemon only observes an exit
    status — and genuinely concurrent: a fresh process per attempt
    makes {!Guard.Budget}'s global deadline/cancel cells per-job, so
    [workers > 1] runs that many jobs in parallel (the restriction
    that serialized PR 9's engine).

    Fork-safety contract: OCaml 5 refuses [Unix.fork] in a process
    that has {e ever} created a domain, so nothing on the daemon side
    may call [Domain.spawn]. Children may (a job's [jobs] config
    drives {!Parexec} there).

    Robustness (DESIGN.md §15): bounded admission with structured
    backpressure rejections; per-job address-space/CPU rlimits whose
    exhaustion fails deterministically without retry; per-attempt
    deadlines enforced in the child with a parent-side watchdog
    backstop; a hung-job watchdog that SIGKILLs workers silent past
    the stall bound and retries their jobs; deterministic
    capped-exponential retry for transient failures and lost workers;
    three-phase drain (grace, SIGTERM checkpoint-and-park, SIGKILL
    with re-pend); crash recovery by state-dir scan, bit-identical
    thanks to each job's {!Ckpt} store; stale-socket recovery (a dead
    leftover socket is probed and unlinked, a live daemon's socket is
    refused with a [serve-socket-busy] diag).

    The serve.* fault sites are checked with {e transient} semantics —
    a spec [site:N] fails the first N hits and then heals. Worker
    sites ([serve.worker], [serve.worker_kill], [serve.worker_hang])
    are counted in the parent, once per spawn, and executed in the
    child; that is what lets one spec span retries across processes. *)

type config = {
  socket_path : string;  (** Unix socket path (~100 byte OS limit) *)
  state_dir : string;  (** per-job dirs live under [state_dir]/jobs *)
  queue_limit : int;  (** admission bound; the N+1th submit is rejected *)
  workers : int;  (** worker process slots (clamped to ≥ 1) *)
  drain_grace_s : float;
      (** per-phase drain grace: first let in-flight jobs finish, then
          after SIGTERM let them checkpoint and park, then SIGKILL *)
  retry_base_s : float;
      (** backoff of the first retry; attempt [n] waits
          [min 2 (base * 2^(n-1))] s — deterministic, no jitter *)
  max_line_bytes : int;  (** request framing bound *)
  default_job_jobs : int;  (** worker domains for jobs submitting [jobs=0] *)
  job_mem_mb : int option;
      (** per-worker address-space rlimit; exhaustion fails the job
          with an rlimit classification, no retry *)
  job_cpu_s : int option;
      (** per-worker CPU-time rlimit (SIGXCPU); same classification *)
  stall_s : float;
      (** watchdog: SIGKILL a worker whose pipe is silent this long
          (heartbeats arrive every 0.5 s, so this catches wedged
          workers, not slow jobs); its job retries as worker-lost *)
  deadline_grace_s : float;
      (** watchdog: slack past a job's own deadline before the parent
          concludes the child missed it and kills from outside *)
  faults : Guard.Fault.spec list;
      (** serve.* specs are armed engine-side; the rest ride into each
          worker and arm around the flow ({!Guard.Supervisor.with_run}) *)
}

val default_config : socket_path:string -> state_dir:string -> config
(** queue_limit 8, 1 worker, drain_grace_s 5, retry 0.05 s doubling
    capped at 2 s, 1 MiB lines, single-domain jobs, no rlimits,
    stall_s 30, deadline_grace_s 2, no faults. *)

type t

val create : config -> t
(** Bind and listen on the socket, prepare the state dir, and recover:
    jobs found pending/running/parked from a previous daemon are
    re-enqueued as pending (attempts preserved, checkpoints intact).
    A leftover socket file is probed first — unlinked when no daemon
    answers, refused with @raise Guard.Diag.Fail ([serve-socket-busy])
    when one does. Clients may connect as soon as [create] returns;
    requests are answered once {!run} starts. Ignores SIGPIPE
    process-wide. *)

val run : t -> unit
(** Serve until drained: returns after a drain request once every
    in-flight job finished, parked, or was killed and re-pended, with
    every socket closed and the socket path unlinked. The caller then
    exits 0. *)

val request_drain : t -> unit
(** Stop admitting jobs and shut down gracefully. Async-signal-safe
    (one atomic store) — call it from a SIGTERM/SIGINT handler. *)

val stats : t -> Proto.stats
