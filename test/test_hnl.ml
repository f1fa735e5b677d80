(* Tests for the HNL lexer, parser and printer. *)

module L = Hnl.Lexer
module P = Hnl.Parser
module D = Netlist.Design

let tokens src = List.map fst (L.tokenize src)

let test_lexer_basic () =
  Alcotest.(check int) "token count" 6
    (List.length (tokens "design top module x {"));
  match tokens "design top" with
  | [ L.Kw_design; L.Ident "top"; L.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_keywords () =
  (match tokens "macro flop comb inst size area in out input output" with
  | [ L.Kw_macro; L.Kw_flop; L.Kw_comb; L.Kw_inst; L.Kw_size; L.Kw_area; L.Kw_in;
      L.Kw_out; L.Kw_input; L.Kw_output; L.Eof ] -> ()
  | _ -> Alcotest.fail "keyword tokens wrong")

let test_lexer_punctuation () =
  match tokens "{ } ( ) ; , : =>" with
  | [ L.Lbrace; L.Rbrace; L.Lparen; L.Rparen; L.Semi; L.Comma; L.Colon; L.Arrow; L.Eof ] -> ()
  | _ -> Alcotest.fail "punct tokens wrong"

let test_lexer_numbers () =
  (match tokens "size 64 32.5" with
  | [ L.Kw_size; L.Number a; L.Number b; L.Eof ] ->
    Alcotest.(check (float 1e-9)) "int" 64.0 a;
    Alcotest.(check (float 1e-9)) "float" 32.5 b
  | _ -> Alcotest.fail "number tokens wrong")

let test_lexer_identifiers () =
  (match tokens "data[3] stage0_1 a/b.c" with
  | [ L.Ident "data[3]"; L.Ident "stage0_1"; L.Ident "a/b.c"; L.Eof ] -> ()
  | _ -> Alcotest.fail "ident tokens wrong")

let test_lexer_comments_and_lines () =
  let toks = L.tokenize "a # comment with module keyword\nb" in
  (match List.map fst toks with
  | [ L.Ident "a"; L.Ident "b"; L.Eof ] -> ()
  | _ -> Alcotest.fail "comment not skipped");
  (* token positions: both idents start their line, Eof sits after [b] *)
  match toks with
  | [ (_, { L.line = 1; col = 1 }); (_, { L.line = 2; col = 1 });
      (_, { L.line = 2; col = 2 }) ] ->
    ()
  | _ -> Alcotest.fail "token positions wrong"

let test_lexer_error () =
  match L.tokenize "a\n $" with
  | exception L.Lex_error { L.line = 2; col = 2; _ } -> ()
  | exception L.Lex_error { L.line; col; _ } ->
    Alcotest.failf "wrong position %d:%d" line col
  | _ -> Alcotest.fail "expected lex error"

let small_src =
  {|design top
module top {
  input a
  output z
  macro m size 8 4 (in a ; out q)
  flop r (in q ; out p)
  comb c area 2 (in p ; out z)
}|}

let test_parse_small () =
  match P.parse_string small_src with
  | Error e -> Alcotest.failf "parse failed at line %d: %s" e.P.line e.P.message
  | Ok d ->
    Alcotest.(check string) "top name" "top" d.D.top;
    (match D.find_module d "top" with
    | None -> Alcotest.fail "module missing"
    | Some m ->
      Alcotest.(check int) "ports" 2 (List.length m.D.ports);
      Alcotest.(check int) "cells" 3 (List.length m.D.cells);
      let macro = List.find (fun (c : D.cell_decl) -> c.D.cname = "m") m.D.cells in
      (match macro.D.ckind with
      | D.Macro { D.mw; mh } ->
        Alcotest.(check (float 1e-9)) "macro w" 8.0 mw;
        Alcotest.(check (float 1e-9)) "macro h" 4.0 mh
      | _ -> Alcotest.fail "expected macro kind");
      let comb = List.find (fun (c : D.cell_decl) -> c.D.cname = "c") m.D.cells in
      Alcotest.(check (float 1e-9)) "comb area" 2.0 comb.D.carea)

let test_parse_inst () =
  let src =
    {|design t
module sub { input i output o comb c (in i ; out o) }
module t { input x output y inst u : sub (i => x, o => y) }|}
  in
  match P.parse_string src with
  | Error e -> Alcotest.failf "parse failed: %s" e.P.message
  | Ok d ->
    (match D.find_module d "t" with
    | Some m ->
      Alcotest.(check int) "one inst" 1 (List.length m.D.insts);
      let i = List.hd m.D.insts in
      Alcotest.(check string) "inst module" "sub" i.D.imodule;
      Alcotest.(check (list (pair string string))) "bindings"
        [ ("i", "x"); ("o", "y") ] i.D.bindings
    | None -> Alcotest.fail "module t missing")

let test_parse_empty_pins () =
  let src = {|design t
module t { comb c () }|} in
  match P.parse_string src with
  | Ok d ->
    let m = Option.get (D.find_module d "t") in
    let c = List.hd m.D.cells in
    Alcotest.(check (list string)) "no ins" [] c.D.cins;
    Alcotest.(check (list string)) "no outs" [] c.D.couts
  | Error e -> Alcotest.failf "parse failed: %s" e.P.message

let expect_parse_error src name =
  match P.parse_string src with
  | Ok _ -> Alcotest.fail (name ^ ": expected parse error")
  | Error _ -> ()

let test_parse_errors () =
  expect_parse_error "module x {}" "missing design";
  expect_parse_error "design t\nmodule t {" "unclosed brace";
  expect_parse_error "design t\nmodule t { macro m (in a) }" "macro without size";
  expect_parse_error "design t\nmodule t { inst u sub () }" "inst without colon";
  expect_parse_error "design t\nmodule t { flop f in a ; out b ) }" "missing lparen"

let test_parse_error_line () =
  match P.parse_string "design t\nmodule t {\n  macro m (in a)\n}" with
  | Error e ->
    Alcotest.(check int) "error line" 3 e.P.line;
    Alcotest.(check int) "error col" 11 e.P.col
  | Ok _ -> Alcotest.fail "expected error"

(* A lexical error anywhere in the text outranks a parse error before
   it: the macro on line 2 has no size, but the illegal character on
   line 4 is what gets reported. *)
let test_lex_error_outranks_parse_error () =
  let src = "design t\nmodule t { macro m (in a) }\nmodule u {\n  comb c $ ()\n}\n" in
  match P.parse_string src with
  | Error e ->
    Alcotest.(check int) "error line" 4 e.P.line;
    Alcotest.(check int) "error col" 10 e.P.col;
    Alcotest.(check string) "error message" "illegal character '$'" e.P.message
  | Ok _ -> Alcotest.fail "expected error"

let test_roundtrip_small () =
  let d = P.parse_exn small_src in
  let printed = Hnl.Printer.to_string d in
  let d2 = P.parse_exn printed in
  Alcotest.(check bool) "round trip equal" true (d = d2)

let test_roundtrip_generated () =
  (* full structural round-trip on a real generated design *)
  let d = Circuitgen.Suite.fig1_design () in
  let printed = Hnl.Printer.to_string d in
  match P.parse_string printed with
  | Error e -> Alcotest.failf "re-parse failed at line %d: %s" e.P.line e.P.message
  | Ok d2 ->
    Alcotest.(check bool) "identical design" true (d = d2);
    (* and the elaborations agree *)
    let f1 = Netlist.Flat.elaborate d and f2 = Netlist.Flat.elaborate d2 in
    Alcotest.(check int) "same node count" (Array.length f1.Netlist.Flat.nodes)
      (Array.length f2.Netlist.Flat.nodes);
    Alcotest.(check int) "same edges"
      (Graphlib.Digraph.edge_count f1.Netlist.Flat.gnet)
      (Graphlib.Digraph.edge_count f2.Netlist.Flat.gnet)

(* The printer writes large values with a signed exponent ([1e+07],
   [2.5e+06]); the lexer must read them back. *)
let test_roundtrip_exponents () =
  let m =
    D.module_def ~name:"t"
      ~cells:
        [ D.cell ~name:"m" ~kind:(D.make_macro ~w:1e7 ~h:4.0) ~ins:[ "a" ] ~outs:[ "q" ] ();
          D.cell ~name:"c" ~kind:D.Comb ~area:2.5e6 ~ins:[ "q" ] ~outs:[ "z" ] () ]
      ()
  in
  let d = D.design ~top:"t" ~modules:[ m ] in
  let printed = Hnl.Printer.to_string d in
  Alcotest.(check bool) "size printed with exponent" true
    (Astring.String.is_infix ~affix:"size 1e+07 4 " printed);
  Alcotest.(check bool) "area printed with exponent" true
    (Astring.String.is_infix ~affix:"area 2.5e+06 " printed);
  match P.parse_string printed with
  | Ok d2 -> Alcotest.(check bool) "round trip equal" true (d = d2)
  | Error e -> Alcotest.failf "re-parse failed at %d:%d: %s" e.P.line e.P.col e.P.message

let test_roundtrip_fig2 () =
  let d = Circuitgen.Suite.fig2_system () in
  let d2 = P.parse_exn (Hnl.Printer.to_string d) in
  Alcotest.(check bool) "fig2 round trip" true (d = d2)

let test_parse_file () =
  let path = Filename.temp_file "hidap" ".hnl" in
  let oc = open_out path in
  output_string oc small_src;
  close_out oc;
  (match P.parse_file path with
  | Ok d -> Alcotest.(check string) "top from file" "top" d.D.top
  | Error e -> Alcotest.failf "parse_file failed: %s" e.P.message);
  Sys.remove path

(* A suite circuit as the benchmark's seed 1 generates it (generator
   seed moved by 1000). *)
let seed1_design name =
  let c = Option.get (Circuitgen.Suite.find name) in
  Circuitgen.Gen.generate
    { c.Circuitgen.Suite.params with seed = c.Circuitgen.Suite.params.seed + 1000 }

let test_roundtrip_suite () =
  List.iter
    (fun name ->
      let d = seed1_design name in
      match P.parse_string (Hnl.Printer.to_string d) with
      | Ok d2 -> Alcotest.(check bool) (name ^ " round trip equal") true (d = d2)
      | Error e -> Alcotest.failf "%s re-parse failed at line %d: %s" name e.P.line e.P.message)
    [ "c1"; "c5" ]

(* MD5 of the HNL text printed for c1 and c5 as the benchmark's seed 1
   generates them (generator seed moved by 1000). Pinned from the
   Format-based printer, so the Buffer-based one must print the same
   bytes. *)
let printed_digests =
  [ ("c1", "ef366e5ad6de6b53d1f98c68c6718aaa"); ("c5", "351228c6a89d69c6ac908ff71ff3bf68") ]

let test_printer_digest () =
  List.iter
    (fun (name, digest) ->
      let text = Hnl.Printer.to_string (seed1_design name) in
      Alcotest.(check string) (name ^ " printed digest") digest
        (Digest.to_hex (Digest.string text)))
    printed_digests

let suite =
  [ ( "hnl.lexer",
      [ Alcotest.test_case "basic" `Quick test_lexer_basic;
        Alcotest.test_case "keywords" `Quick test_lexer_keywords;
        Alcotest.test_case "punctuation" `Quick test_lexer_punctuation;
        Alcotest.test_case "numbers" `Quick test_lexer_numbers;
        Alcotest.test_case "identifiers" `Quick test_lexer_identifiers;
        Alcotest.test_case "comments and lines" `Quick test_lexer_comments_and_lines;
        Alcotest.test_case "error reporting" `Quick test_lexer_error ] );
    ( "hnl.parser",
      [ Alcotest.test_case "small design" `Quick test_parse_small;
        Alcotest.test_case "instances" `Quick test_parse_inst;
        Alcotest.test_case "empty pins" `Quick test_parse_empty_pins;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "error line" `Quick test_parse_error_line;
        Alcotest.test_case "lex error outranks parse error" `Quick
          test_lex_error_outranks_parse_error;
        Alcotest.test_case "parse_file" `Quick test_parse_file ] );
    ( "hnl.roundtrip",
      [ Alcotest.test_case "small" `Quick test_roundtrip_small;
        Alcotest.test_case "generated fig1" `Quick test_roundtrip_generated;
        Alcotest.test_case "fig2 system" `Quick test_roundtrip_fig2;
        Alcotest.test_case "suite c1/c5" `Quick test_roundtrip_suite;
        Alcotest.test_case "signed exponents" `Quick test_roundtrip_exponents;
        Alcotest.test_case "printed c1/c5 digest" `Quick test_printer_digest ] ) ]
