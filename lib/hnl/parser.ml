module D = Netlist.Design

type error = { line : int; col : int; message : string }

exception Parse_error of error

(* The parser reads the lexer's current token and advances it itself:
   no token list is built. *)
let peek = Lexer.token

let advance = Lexer.next

let fail lx message =
  let (p : Lexer.pos) = Lexer.pos lx in
  raise (Parse_error { line = p.line; col = p.col; message })

(* [tok] is always a constant constructor, so [==] is equality. *)
let expect lx tok =
  let t = peek lx in
  if t == tok then advance lx
  else
    fail lx
      (Printf.sprintf "expected %s, found %s" (Lexer.token_to_string tok)
         (Lexer.token_to_string t))

let ident lx =
  match peek lx with
  | Lexer.Ident s ->
    advance lx;
    s
  | t -> fail lx (Printf.sprintf "expected identifier, found %s" (Lexer.token_to_string t))

let number lx =
  match peek lx with
  | Lexer.Number f ->
    advance lx;
    f
  | t -> fail lx (Printf.sprintf "expected number, found %s" (Lexer.token_to_string t))

let ident_list lx =
  let rec loop acc =
    match peek lx with
    | Lexer.Ident s ->
      advance lx;
      loop (s :: acc)
    | _ -> List.rev acc
  in
  loop []

(* pins := "(" ["in" IDENT*] [";"] ["out" IDENT*] ")" *)
let pins lx =
  expect lx Lexer.Lparen;
  let ins =
    match peek lx with
    | Lexer.Kw_in ->
      advance lx;
      ident_list lx
    | _ -> []
  in
  (match peek lx with Lexer.Semi -> advance lx | _ -> ());
  let outs =
    match peek lx with
    | Lexer.Kw_out ->
      advance lx;
      ident_list lx
    | _ -> []
  in
  expect lx Lexer.Rparen;
  (ins, outs)

let binding lx =
  let formal = ident lx in
  expect lx Lexer.Arrow;
  let actual = ident lx in
  (formal, actual)

let bindings lx =
  expect lx Lexer.Lparen;
  let rec loop acc =
    match peek lx with
    | Lexer.Rparen ->
      advance lx;
      List.rev acc
    | Lexer.Comma ->
      advance lx;
      loop acc
    | _ -> loop (binding lx :: acc)
  in
  loop []

(* After "flop" or "comb": IDENT ["area" NUM] pins *)
let std_cell lx kind =
  let name = ident lx in
  let area =
    match peek lx with
    | Lexer.Kw_area ->
      advance lx;
      Some (number lx)
    | _ -> None
  in
  let ins, outs = pins lx in
  D.cell ~name ~kind ?area ~ins ~outs ()

let module_ lx =
  expect lx Lexer.Kw_module;
  let name = ident lx in
  expect lx Lexer.Lbrace;
  let rec loop ports cells insts =
    match peek lx with
    | Lexer.Kw_input ->
      advance lx;
      let p = D.port ~name:(ident lx) ~dir:D.Input in
      loop (p :: ports) cells insts
    | Lexer.Kw_output ->
      advance lx;
      let p = D.port ~name:(ident lx) ~dir:D.Output in
      loop (p :: ports) cells insts
    | Lexer.Kw_macro ->
      advance lx;
      let name = ident lx in
      expect lx Lexer.Kw_size;
      let w = number lx in
      let h = number lx in
      let ins, outs = pins lx in
      let c = D.cell ~name ~kind:(D.make_macro ~w ~h) ~ins ~outs () in
      loop ports (c :: cells) insts
    | Lexer.Kw_flop ->
      advance lx;
      let c = std_cell lx D.Flop in
      loop ports (c :: cells) insts
    | Lexer.Kw_comb ->
      advance lx;
      let c = std_cell lx D.Comb in
      loop ports (c :: cells) insts
    | Lexer.Kw_inst ->
      advance lx;
      let name = ident lx in
      expect lx Lexer.Colon;
      let module_ = ident lx in
      let i = D.inst ~name ~module_ ~bindings:(bindings lx) in
      loop ports cells (i :: insts)
    | _ ->
      expect lx Lexer.Rbrace;
      D.module_def ~name ~ports:(List.rev ports) ~cells:(List.rev cells)
        ~insts:(List.rev insts) ()
  in
  loop [] [] []

let design lx =
  expect lx Lexer.Kw_design;
  let top = ident lx in
  let rec loop acc =
    match peek lx with
    | Lexer.Eof -> List.rev acc
    | _ -> loop (module_ lx :: acc)
  in
  let modules = loop [] in
  D.design ~top ~modules

let parse_string src =
  Obs.Span.with_ ~name:"hnl.parse" (fun () ->
      Obs.Span.attr_int "bytes" (String.length src);
      Obs.Perf.add Obs.Perf.hnl_bytes_parsed (String.length src);
      let lex_error { Lexer.line; col; message } = Error { line; col; message } in
      let lx = Lexer.of_string src in
      match
        advance lx;
        design lx
      with
      | d -> Ok d
      | exception Lexer.Lex_error e -> lex_error e
      | exception Parse_error e -> (
        (* A lexical error anywhere in the text outranks a parse error,
           as if the whole text were tokenized first: read on to the
           end and report the first one. *)
        let rec drain () = match peek lx with Lexer.Eof -> () | _ -> advance lx; drain () in
        match drain () with
        | () -> Error e
        | exception Lexer.Lex_error e -> lex_error e))

let parse_file path =
  Obs.Span.with_ ~name:"hnl.parse_file" (fun () ->
      Obs.Span.attr_str "path" path;
      Obs.Perf.add Obs.Perf.hnl_files_parsed 1;
      let ic = open_in path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      parse_string src)

let parse_exn src =
  match parse_string src with
  | Ok d -> d
  | Error e -> raise (Parse_error e)
