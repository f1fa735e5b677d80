(** Blocking client for the hidap-serve Unix socket.

    One connection carries any number of request/response exchanges.
    Used by [hidap submit] / [hidap jobs], the bench load generator
    and the tests. Every call returns [Error _] on protocol or
    transport failure — connection problems never raise past
    {!connect}. *)

(** [Conn] — the conversation with the daemon broke: connection
    refused, EOF mid-exchange (the daemon died), or a failed send.
    The CLI maps these to its daemon-unreachable exit code (7).
    [Remote] — the daemon answered with an error, or broke protocol. *)
type error = Conn of string | Remote of string

val error_message : error -> string

val is_conn : error -> bool

type t

val connect : socket_path:string -> t
(** Raises [Unix.Unix_error] when the socket is absent or refused. *)

val close : t -> unit

val request : t -> Proto.request -> (Proto.response, error) result
(** One raw exchange (for tests; prefer the typed wrappers). *)

val ping : t -> (unit, error) result

val submit :
  t ->
  Proto.submit ->
  ([ `Accepted of string * int | `Rejected of string * int * int ], error) result
(** [`Accepted (id, depth)] or [`Rejected (reason, depth, limit)] —
    a backpressure/draining rejection is a normal answer, not an
    error. *)

val status : t -> string -> (Proto.job_view, error) result

val list : t -> (Proto.job_view list, error) result

val stats : t -> (Proto.stats, error) result

val result : t -> string -> (Obs.Jsonx.t, error) result
(** The completed job's QoR ledger document. *)

val drain : t -> (unit, error) result

val watch :
  t -> string -> on_event:(Obs.Jsonx.t -> unit) -> (Proto.job_view, error) result
(** Stream the job's relayed progress events through [on_event] until
    it reaches a terminal state; returns the terminal view. The
    connection is dedicated to the watch from this call on — a [Conn]
    error means the daemon died while the job was in flight. *)

val wait :
  ?poll_s:float -> ?timeout_s:float -> t -> string -> (Proto.job_view, error) result
(** Poll [status] until the job is terminal (default 50 ms period,
    120 s timeout). *)
