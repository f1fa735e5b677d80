(** Structured diagnostics.

    Every user-facing failure in the flow is a diagnostic: a stable
    [code] (listed in DESIGN.md section 10), a severity, the flow stage
    that produced it, and a message. Diagnostics replace ad-hoc
    [failwith] in the validation and placement layers: library code
    raises {!Fail} with a diagnostic and the CLI turns it into a
    one-line report plus a distinct exit code, instead of an
    uncaught-exception dump. *)

type severity = Info | Warning | Error

type t = {
  code : string;  (** stable kebab-case identifier, e.g. ["bad-area"] *)
  severity : severity;
  stage : string;  (** flow stage, e.g. ["validate"], ["floorplan"] *)
  message : string;
}

val codes : (string * string * string) list
(** Every registered code as [(code, severity discipline, meaning)] —
    the table `hidap check --list-codes` prints, and the source the
    DESIGN.md section 10 table is generated from (CI asserts they
    match). *)

exception Fail of t
(** Raised by library code for an unrecoverable, already-diagnosed
    failure. The supervisor never converts a [Fail] into a degradation:
    it is a verdict, not a fault. *)

val make : code:string -> severity:severity -> stage:string -> string -> t

val error : code:string -> stage:string -> string -> t

val warning : code:string -> stage:string -> string -> t

val fail : code:string -> stage:string -> string -> 'a
(** [fail ~code ~stage msg] raises {!Fail} with an [Error] diagnostic. *)

val escalate : t -> t
(** Warning -> Error (strict mode); other severities unchanged. *)

val is_error : t -> bool

val pp : Format.formatter -> t -> unit
(** [severity[code] (stage): message] *)

val to_string : t -> string
