(** Lexer for the HNL structural netlist format. *)

type token =
  | Kw_design
  | Kw_module
  | Kw_input
  | Kw_output
  | Kw_macro
  | Kw_flop
  | Kw_comb
  | Kw_inst
  | Kw_size
  | Kw_area
  | Kw_in
  | Kw_out
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Semi
  | Comma
  | Colon
  | Arrow  (** [=>] in instance bindings *)
  | Ident of string
  | Number of float
  | Eof

type pos = { line : int; col : int }
(** 1-based line and column of a token's first character. *)

type error = { line : int; col : int; message : string }

exception Lex_error of error

type t
(** A pull lexer over one source string. It holds the current token and
    the position of its first character; {!next} moves it to the next
    token. [#] starts a comment running to end of line. *)

val of_string : string -> t
(** A lexer before the first token: call {!next} to read it. *)

val next : t -> unit
(** Advance to the next token; at the end of the text the token is
    [Eof], and stays [Eof] on every further call. Raises {!Lex_error}
    (carrying the offending position) on an illegal character or a
    malformed number. *)

val token : t -> token
(** The current token. *)

val pos : t -> pos
(** The position of the current token (a fresh record). *)

val tokenize : string -> (token * pos) list
(** The whole token stream of a text, ending with [Eof]. *)

val token_to_string : token -> string
