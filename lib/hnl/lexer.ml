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
  | Arrow
  | Ident of string
  | Number of float
  | Eof

type pos = { line : int; col : int }

type error = { line : int; col : int; message : string }

exception Lex_error of error

type t = {
  src : string;
  len : int;
  mutable i : int;  (* next unread character *)
  mutable line : int;
  (* Index of the first character of the current line; the column of
     the character at [i] is [i - bol + 1]. *)
  mutable bol : int;
  mutable tok : token;
  mutable tok_line : int;
  mutable tok_col : int;
}

let of_string src =
  { src; len = String.length src; i = 0; line = 1; bol = 0; tok = Eof; tok_line = 1;
    tok_col = 1 }

let token lx = lx.tok

let pos lx = { line = lx.tok_line; col = lx.tok_col }

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' | '[' | ']' | '/' | '.' | '-' -> true
  | _ -> false

(* [src.[i + k .. i + n - 1]] equals [kw.[k .. n - 1]]. *)
let rec same src i n kw k =
  k = n || (String.unsafe_get src (i + k) = String.unsafe_get kw k && same src i n kw (k + 1))

(* The keyword spelled by [src.[i .. i + n - 1]], or [Eof] when it is
   none: recognised in place, before any substring is cut. *)
let keyword src i n =
  let spelling, kw =
    match (n, String.unsafe_get src i) with
    | 2, 'i' -> ("in", Kw_in)
    | 3, 'o' -> ("out", Kw_out)
    | 4, 'a' -> ("area", Kw_area)
    | 4, 'c' -> ("comb", Kw_comb)
    | 4, 'f' -> ("flop", Kw_flop)
    | 4, 'i' -> ("inst", Kw_inst)
    | 4, 's' -> ("size", Kw_size)
    | 5, 'i' -> ("input", Kw_input)
    | 5, 'm' -> ("macro", Kw_macro)
    | 6, 'd' -> ("design", Kw_design)
    | 6, 'm' -> ("module", Kw_module)
    | 6, 'o' -> ("output", Kw_output)
    | _ -> ("", Eof)
  in
  match kw with
  | Eof -> Eof
  | _ -> if same src i n spelling 1 then kw else Eof

let fail_at lx start message =
  raise (Lex_error { line = lx.line; col = start - lx.bol + 1; message })

let set lx start tok =
  lx.tok <- tok;
  lx.tok_line <- lx.line;
  lx.tok_col <- start - lx.bol + 1

(* The end of a number starting at [j - 1]: digits, '.', and an
   exponent 'e' with an optional sign. *)
let rec number_end src n j =
  if j >= n then j
  else
    match String.unsafe_get src j with
    | '0' .. '9' | '.' | 'e' -> number_end src n (j + 1)
    | ('-' | '+') when String.unsafe_get src (j - 1) = 'e' -> number_end src n (j + 1)
    | _ -> j

(* [v] followed by the decimal digits [src.[j .. stop - 1]], or -1 if
   one of them is not a digit. *)
let rec digits_value src j stop v =
  if j = stop then v
  else
    match String.unsafe_get src j with
    | '0' .. '9' as c -> digits_value src (j + 1) stop ((v * 10) + Char.code c - 48)
    | _ -> -1

let number lx start =
  let stop = number_end lx.src lx.len (start + 1) in
  lx.i <- stop;
  let k = stop - start in
  (* Up to 15 digits are exact as a double, so the integer's value is
     what [float_of_string] would return. *)
  let v = if k <= 15 then digits_value lx.src start stop 0 else -1 in
  if v >= 0 then set lx start (Number (float_of_int v))
  else
    let s = String.sub lx.src start k in
    match float_of_string_opt s with
    | Some f -> set lx start (Number f)
    | None -> fail_at lx start (Printf.sprintf "bad number %S" s)

let punct lx i tok =
  lx.i <- i + 1;
  set lx i tok

let rec next lx =
  let src = lx.src and n = lx.len in
  let i = lx.i in
  if i >= n then set lx i Eof
  else
    match String.unsafe_get src i with
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.i <- i + 1;
      lx.bol <- i + 1;
      next lx
    | ' ' | '\t' | '\r' ->
      lx.i <- i + 1;
      next lx
    | '#' ->
      let j = ref i in
      while !j < n && String.unsafe_get src !j <> '\n' do
        incr j
      done;
      lx.i <- !j;
      next lx
    | '{' -> punct lx i Lbrace
    | '}' -> punct lx i Rbrace
    | '(' -> punct lx i Lparen
    | ')' -> punct lx i Rparen
    | ';' -> punct lx i Semi
    | ',' -> punct lx i Comma
    | ':' -> punct lx i Colon
    | '=' ->
      if i + 1 < n && String.unsafe_get src (i + 1) = '>' then begin
        lx.i <- i + 2;
        set lx i Arrow
      end
      else fail_at lx i "expected '=>' after '='"
    | '0' .. '9' -> number lx i
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let j = ref (i + 1) in
      while !j < n && is_ident_char (String.unsafe_get src !j) do
        incr j
      done;
      lx.i <- !j;
      let k = !j - i in
      (match keyword src i k with
      | Eof -> set lx i (Ident (String.sub src i k))
      | kw -> set lx i kw)
    | c -> fail_at lx i (Printf.sprintf "illegal character %C" c)

let tokenize src =
  let lx = of_string src in
  let rec loop acc =
    next lx;
    let acc = (lx.tok, pos lx) :: acc in
    match lx.tok with Eof -> List.rev acc | _ -> loop acc
  in
  loop []

let token_to_string = function
  | Kw_design -> "design"
  | Kw_module -> "module"
  | Kw_input -> "input"
  | Kw_output -> "output"
  | Kw_macro -> "macro"
  | Kw_flop -> "flop"
  | Kw_comb -> "comb"
  | Kw_inst -> "inst"
  | Kw_size -> "size"
  | Kw_area -> "area"
  | Kw_in -> "in"
  | Kw_out -> "out"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Lparen -> "("
  | Rparen -> ")"
  | Semi -> ";"
  | Comma -> ","
  | Colon -> ":"
  | Arrow -> "=>"
  | Ident s -> s
  | Number f -> string_of_float f
  | Eof -> "<eof>"
