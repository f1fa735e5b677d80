(** HNL pretty-printer; {!Parser.parse_string} of the output reproduces
    the design (round-trip tested). A cell's [area] is written only where
    it differs from {!Netlist.Design.default_area} of its kind. *)

val to_string : Netlist.Design.t -> string

val write_file : string -> Netlist.Design.t -> unit

val fmt_float : float -> string
(** The shortest [%.{p}g] text, [p] from 6 up to 17, that reads back as
    the same float. *)
