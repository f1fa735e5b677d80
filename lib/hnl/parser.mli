(** Recursive-descent parser for HNL.

    Grammar (comments start with [#]):
    {v
    design  := "design" IDENT module*
    module  := "module" IDENT "{" item* "}"
    item    := "input" IDENT
             | "output" IDENT
             | "macro" IDENT "size" NUM NUM ["area" NUM] pins
             | "flop" IDENT ["area" NUM] pins
             | "comb" IDENT ["area" NUM] pins
             | "inst" IDENT ":" IDENT "(" [binding ("," binding)*] ")"
    pins    := "(" ["in" IDENT*] [";"] ["out" IDENT*] ")"
    binding := IDENT "=>" IDENT
    v} *)

type error = { line : int; col : int; message : string }
(** 1-based position of the offending token's first character. *)

exception Parse_error of error

val parse_string : string -> (Netlist.Design.t, error) result
(** Parse HNL source text. Lexical errors are reported through the same
    [error] type. *)

val parse_file : string -> (Netlist.Design.t, error) result

val parse_exn : string -> Netlist.Design.t
(** @raise Parse_error on malformed input. *)
