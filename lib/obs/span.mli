(** Tracing spans with nesting.

    A span covers the execution of [with_ ~name f]: it records a
    monotonic start timestamp, the duration, string attributes and the
    spans opened inside it. Recording is off by default ([with_] then
    just runs [f] — one pattern match of overhead), and is turned on by
    installing the global recorder with [start_recording].

    Spans never touch any RNG: enabling tracing cannot change the
    behaviour of the instrumented code.

    The recorder is domain-local (one per domain, installed on the
    domain that called [start_recording]). Worker domains of a
    fork-join runner see no recorder by default; the runner uses
    [capture] around each task and [graft] at the join point to stitch
    the workers' spans back into the spawning domain's recorder in a
    deterministic order. *)

type t = {
  name : string;
  mutable attrs : (string * string) list;
  start_us : float;  (** monotonic microseconds, see {!Clock} *)
  mutable dur_us : float;
  mutable children : t list;
}

val enabled : unit -> bool
(** Whether a recorder is installed. *)

val start_recording : unit -> unit
(** Install a fresh recorder on the calling domain (discarding any
    active one). *)

val finish_recording : unit -> t list
(** Uninstall the recorder and return the completed root spans in
    execution order (children likewise ordered). Spans still open are
    closed at the current time. *)

val capture : (unit -> 'a) -> 'a * t list
(** Run [f] under a fresh temporary recorder (saving and restoring any
    recorder active on the calling domain) and return its result with
    the spans [f] opened, in execution order. The spans are {e raw} —
    internal lists are still in recording order — and are only valid as
    an argument to [graft], which re-inserts them into a live recorder
    so the final [finish_recording] normalizes everything exactly once.
    If [f] raises, the captured spans are discarded and the exception is
    re-raised with its backtrace. *)

val graft : t list -> unit
(** Attach spans previously returned by [capture] as children of the
    innermost open span of the calling domain's recorder (or as roots
    when no span is open). No-op when recording is off. *)

val with_ : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Run [f] under a new span (child of the innermost open span). The
    span is closed even if [f] raises. When recording is off this is
    just [f ()]. *)

val attr_str : string -> string -> unit
(** Attach an attribute to the innermost open span; no-op when
    recording is off. The typed variants below only build the string
    representation when a recorder is active. *)

val attr_int : string -> int -> unit
val attr_float : string -> float -> unit
