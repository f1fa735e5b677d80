module D = Netlist.Design

type error = { line : int; col : int; message : string }

exception Parse_error of error

type state = { mutable toks : (Lexer.token * Lexer.pos) list }

let peek st =
  match st.toks with
  | (t, pos) :: _ -> (t, pos)
  | [] -> (Lexer.Eof, { Lexer.line = 0; col = 0 })

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let fail (pos : Lexer.pos) message =
  raise (Parse_error { line = pos.Lexer.line; col = pos.Lexer.col; message })

let expect st tok =
  let t, pos = peek st in
  if t = tok then advance st
  else
    fail pos
      (Printf.sprintf "expected %s, found %s" (Lexer.token_to_string tok)
         (Lexer.token_to_string t))

let ident st =
  match peek st with
  | Lexer.Ident s, _ ->
    advance st;
    s
  | t, pos -> fail pos (Printf.sprintf "expected identifier, found %s" (Lexer.token_to_string t))

let number st =
  match peek st with
  | Lexer.Number f, _ ->
    advance st;
    f
  | t, pos -> fail pos (Printf.sprintf "expected number, found %s" (Lexer.token_to_string t))

let ident_list st =
  let rec loop acc =
    match peek st with
    | Lexer.Ident s, _ ->
      advance st;
      loop (s :: acc)
    | _ -> List.rev acc
  in
  loop []

(* pins := "(" ["in" IDENT*] [";"] ["out" IDENT*] ")" *)
let pins st =
  expect st Lexer.Lparen;
  let ins =
    match peek st with
    | Lexer.Kw_in, _ ->
      advance st;
      ident_list st
    | _ -> []
  in
  (match peek st with Lexer.Semi, _ -> advance st | _ -> ());
  let outs =
    match peek st with
    | Lexer.Kw_out, _ ->
      advance st;
      ident_list st
    | _ -> []
  in
  expect st Lexer.Rparen;
  (ins, outs)

let binding st =
  let formal = ident st in
  expect st Lexer.Arrow;
  let actual = ident st in
  (formal, actual)

let bindings st =
  expect st Lexer.Lparen;
  let rec loop acc =
    match peek st with
    | Lexer.Rparen, _ ->
      advance st;
      List.rev acc
    | Lexer.Comma, _ ->
      advance st;
      loop acc
    | _ -> loop (binding st :: acc)
  in
  loop []

type item =
  | Iport of D.port_decl
  | Icell of D.cell_decl
  | Iinst of D.inst_decl

let item st =
  match peek st with
  | Lexer.Kw_input, _ ->
    advance st;
    Some (Iport (D.port ~name:(ident st) ~dir:D.Input))
  | Lexer.Kw_output, _ ->
    advance st;
    Some (Iport (D.port ~name:(ident st) ~dir:D.Output))
  | Lexer.Kw_macro, _ ->
    advance st;
    let name = ident st in
    expect st Lexer.Kw_size;
    let w = number st in
    let h = number st in
    let ins, outs = pins st in
    Some (Icell (D.cell ~name ~kind:(D.make_macro ~w ~h) ~ins ~outs ()))
  | Lexer.Kw_flop, _ ->
    advance st;
    let name = ident st in
    let area =
      match peek st with
      | Lexer.Kw_area, _ ->
        advance st;
        Some (number st)
      | _ -> None
    in
    let ins, outs = pins st in
    Some (Icell (D.cell ~name ~kind:D.Flop ?area ~ins ~outs ()))
  | Lexer.Kw_comb, _ ->
    advance st;
    let name = ident st in
    let area =
      match peek st with
      | Lexer.Kw_area, _ ->
        advance st;
        Some (number st)
      | _ -> None
    in
    let ins, outs = pins st in
    Some (Icell (D.cell ~name ~kind:D.Comb ?area ~ins ~outs ()))
  | Lexer.Kw_inst, _ ->
    advance st;
    let name = ident st in
    expect st Lexer.Colon;
    let module_ = ident st in
    let bs = bindings st in
    Some (Iinst (D.inst ~name ~module_ ~bindings:bs))
  | _ -> None

let module_ st =
  expect st Lexer.Kw_module;
  let name = ident st in
  expect st Lexer.Lbrace;
  let rec loop ports cells insts =
    match item st with
    | Some (Iport p) -> loop (p :: ports) cells insts
    | Some (Icell c) -> loop ports (c :: cells) insts
    | Some (Iinst i) -> loop ports cells (i :: insts)
    | None ->
      expect st Lexer.Rbrace;
      D.module_def ~name ~ports:(List.rev ports) ~cells:(List.rev cells)
        ~insts:(List.rev insts) ()
  in
  loop [] [] []

let design st =
  expect st Lexer.Kw_design;
  let top = ident st in
  let rec loop acc =
    match peek st with
    | Lexer.Eof, _ -> List.rev acc
    | _ -> loop (module_ st :: acc)
  in
  let modules = loop [] in
  D.design ~top ~modules

let parse_string src =
  Obs.Span.with_ ~name:"hnl.parse" (fun () ->
      Obs.Span.attr_int "bytes" (String.length src);
      Obs.Perf.add Obs.Perf.hnl_bytes_parsed (String.length src);
      match
        let toks = Lexer.tokenize src in
        design { toks }
      with
      | d -> Ok d
      | exception Parse_error e -> Error e
      | exception Lexer.Lex_error { Lexer.line; col; message } ->
        Error { line; col; message })

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
