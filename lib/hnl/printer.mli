(** HNL pretty-printer; {!Parser.parse_string} of the output reproduces
    the design (round-trip tested). *)

val to_string : Netlist.Design.t -> string

val write_file : string -> Netlist.Design.t -> unit
