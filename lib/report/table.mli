(** Column-aligned plain-text tables for the bench harness. *)

type align = Left | Right

val render : header:string list -> ?aligns:align list -> string list list -> string
(** Pads every column to its widest cell; a separator rule follows the
    header. [aligns] defaults to left for the first column, right
    elsewhere. *)

val fmt_f : int -> float -> string
(** Fixed-decimal float formatting. *)

val section : string -> string
(** A titled horizontal rule used between bench sections. *)
