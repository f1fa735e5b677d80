(** hidap-serve wire protocol (NDJSON over a Unix socket).

    One JSON object per line in both directions, each carrying the
    envelope [{"schema":"hidap-serve","version":1,...}] plus a ["req"]
    (client to daemon) or ["resp"] (daemon to client) tag. Versioning
    follows the other hidap schemas: adding fields is
    backward-compatible, anything else bumps [version]; decoders
    ignore unknown fields and refuse newer versions.

    Decoding is {e total}: malformed bytes become [Error _], never an
    exception, because the daemon feeds raw client input through these
    functions (the framing fuzz tests assert exactly this). Absent or
    [null] fields take their defaults; a present field of the wrong
    type is an [Error] naming it. *)

val schema : string
(** ["hidap-serve"] *)

val version : int
(** 1 *)

(** {1 Job states}

    The documented state machine (DESIGN.md §15):
    pending → running → {done, failed, timed-out, parked}, with
    running → pending again on a retry and parked/running/pending →
    pending on daemon restart. *)

type state = Pending | Running | Done | Failed | Timed_out | Parked

val state_to_string : state -> string
(** Wire names: pending / running / done / failed / timed-out / parked. *)

val state_of_string : string -> state option

val state_terminal : state -> bool
(** True for the states a watch ends on: done, failed, timed-out and
    parked (parked is terminal for this daemon process; a restart
    re-enqueues the job). *)

(** {1 Requests} *)

type submit = {
  circuit : string option;  (** synthetic suite circuit name (c1..c8) *)
  hnl : string option;  (** inline HNL netlist text *)
  seed : int;
  lambda : float option;
  jobs : int;  (** worker domains inside the job; 0 = daemon default *)
  deadline_s : float option;  (** per-attempt wall-clock deadline *)
  max_retries : int;  (** extra attempts after a transient failure *)
  label : string;
}

val default_submit : submit
(** [seed 1], no circuit/hnl, [jobs 0], no deadline,
    [max_retries 0], empty label — absent wire fields decode to these. *)

type request =
  | Ping
  | Submit of submit
  | Status of string  (** job id *)
  | List
  | Stats
  | Result of string  (** completed job's QoR ledger *)
  | Watch of string  (** stream progress until the job is terminal *)
  | Drain  (** ask the daemon to drain (same as SIGTERM) *)

val request_to_json : request -> Obs.Jsonx.t

val request_of_json : Obs.Jsonx.t -> (request, string) result

val request_of_line : string -> (request, string) result

(** {1 Responses} *)

type job_view = {
  id : string;
  label : string;
  state : state;
  attempts : int;
  detail : string;  (** last failure / retry / recovery note *)
}

(** One worker slot of the daemon's process pool. [pid] and [job] are
    absent when idle. The pid is exposed on purpose: operators (and
    the stress tests) can kill a wedged worker externally and let the
    daemon absorb and retry it. *)
type worker_view = {
  slot : int;
  pid : int option;
  job : string option;
  elapsed_s : float;  (** seconds the current job has been running; 0 idle *)
}

type stats = {
  queue_depth : int;
  queue_limit : int;
  accepted : int;
  rejected_backpressure : int;
  rejected_draining : int;
  completed : int;
  failed : int;
  timed_out : int;
  parked : int;
  retried : int;
  worker_lost : int;
      (** workers that died unclassified (killed, crashed, or
          watchdog-SIGKILLed); each is a [serve-worker-lost] event *)
  draining : bool;
  workers : worker_view list;  (** one entry per pool slot *)
}

type response =
  | Pong
  | Accepted of { id : string; depth : int }
  | Rejected of { reason : string; depth : int; limit : int }
      (** [reason] is ["backpressure"] (bounded queue full), ["draining"]
          or ["invalid"] (unusable submission) *)
  | Job of job_view
  | Jobs of job_view list
  | Stats_reply of stats
  | Result_reply of { id : string; qor : Obs.Jsonx.t }
  | Progress of { id : string; event : Obs.Jsonx.t }
      (** one relayed hidap-progress event of a watched job *)
  | Draining_reply  (** drain acknowledged *)
  | Error_reply of string

val response_to_json : response -> Obs.Jsonx.t

val response_of_json : Obs.Jsonx.t -> (response, string) result

val response_of_line : string -> (response, string) result

val submit_fields : submit -> (string * Obs.Jsonx.t) list
(** The submit payload as envelope fields (shared with the on-disk
    job.json). *)

val submit_of_json : submit Obs.Jsonx.decoder
(** Absent or [null] fields take their {!default_submit} values; a
    present field of the wrong type is an [Error] naming it. *)

val to_line : Obs.Jsonx.t -> string
(** Compact one-line rendering (the only framing the protocol has). *)

val take_lines : Buffer.t -> string list
(** The complete lines buffered so far, in order and without their
    newlines; the unterminated tail stays in the buffer. Daemon
    connections and worker pipes are both framed this way. *)
