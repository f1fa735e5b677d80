(** Minimal JSON document model, serializer, parser and decoders.

    Just enough JSON to export traces and metrics and to read back the
    documents the program writes (QoR records and ledgers, baselines,
    checkpoint payloads, serve protocol lines and job files) without an
    external dependency. Non-finite floats (NaN and infinities leak
    into metrics from degraded or fault-injected runs) are rendered as
    the string sentinels ["NaN"] / ["Infinity"] / ["-Infinity"] so the
    output is always standard JSON; {!float} and {!to_float_opt} map
    the sentinels back, so numeric fields round-trip through [parse]
    even when non-finite.

    Every reader decodes through the {!decoder}s below, under one rule:
    unknown fields are ignored, an absent or [null] optional field
    takes its default, and a present known field of the wrong type or
    shape is an [Error] naming its path ([macros[3].rect]), never a
    silent default or a dropped element. Decoding never raises. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?compact:bool -> t -> string
(** Render; [compact] (default false) suppresses newlines/indentation. *)

val write_file : string -> t -> unit
(** Write the rendered document (with a trailing newline). *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val parse : string -> (t, string) result
(** Parse a JSON document. Integer-syntax numbers become [Int] (falling
    back to [Float] beyond the native int range), all other numbers
    [Float]. String escapes are decoded; [\uXXXX] sequences (including
    surrogate pairs) are re-encoded as UTF-8 bytes, so
    [parse (to_string t)] round-trips byte-for-byte for every string
    the serializer emits. Errors carry the byte offset. *)

val parse_file : string -> (t, string) result
(** [parse] on a file's contents; I/O failures become [Error]. *)

val to_float_opt : t -> float option
(** Accepts [Float], [Int] (JSON does not distinguish), and the
    non-finite string sentinels the serializer emits. *)

(** {1 Decoders}

    A decoder turns a parsed value into a typed one or an error. Errors
    read ["path: message"], the path being the field names and list
    indices from the decoded value down ([entries[0].metrics.grc_pct]);
    each combinator that descends puts its segment in front. A custom
    decoder returns a bare message (its text before any [':'] holds a
    space), which the combinators then prefix with the path. *)

type 'a decoder = t -> ('a, string) result

module Syntax : sig
  val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
end

val int : int decoder

val float : float decoder
(** Accepts [Float], [Int] and the non-finite string sentinels. *)

val string : string decoder

val bool : bool decoder

val enum : string -> (string -> 'a option) -> 'a decoder
(** [enum what of_string]: a string [of_string] maps, else
    ["unknown <what> \"s\""]. *)

val list : 'a decoder -> 'a list decoder
(** An array, every element decoded ([[i]] in the path). *)

val pair : 'a decoder -> 'b decoder -> ('a * 'b) decoder
(** A two-element array. *)

val assoc : 'a decoder -> (string * 'a) list decoder
(** An object as its (key, value) pairs in document order, every value
    decoded (the key in the path). *)

val field : string -> 'a decoder -> 'a decoder
(** A required field of an object: absent is ["name: missing"]. *)

val field_opt : string -> 'a decoder -> 'a option decoder
(** An optional field: absent or [null] is [None]. *)

val field_or : string -> default:'a -> 'a decoder -> 'a decoder
(** An optional field with a default for absent or [null]. *)
