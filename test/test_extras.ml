(* Tests for the auxiliary tooling: design statistics, DOT export and
   placement persistence. *)

module Flat = Netlist.Flat
module Rect = Geom.Rect

let fig1_flat = lazy (Flat.elaborate (Circuitgen.Suite.fig1_design ()))

let contains ~affix s = Astring.String.is_infix ~affix s

(* ---- stats ---------------------------------------------------------- *)

let test_stats_counts () =
  let flat = Lazy.force fig1_flat in
  let s = Netlist.Stats.compute flat in
  Alcotest.(check int) "macros" 16 s.Netlist.Stats.macros;
  Alcotest.(check int) "nodes consistent" (Array.length flat.Flat.nodes)
    s.Netlist.Stats.nodes;
  Alcotest.(check int) "sum of kinds" s.Netlist.Stats.nodes
    (s.Netlist.Stats.macros + s.Netlist.Stats.flops + s.Netlist.Stats.combs
    + s.Netlist.Stats.ports);
  Alcotest.(check (float 1e-6)) "area consistent" (Flat.total_cell_area flat)
    s.Netlist.Stats.cell_area;
  Alcotest.(check bool) "macro-dominated" true (s.Netlist.Stats.macro_area_pct > 50.0);
  Alcotest.(check int) "two hierarchy levels" 2 s.Netlist.Stats.max_depth;
  Alcotest.(check bool) "acyclic comb" true (s.Netlist.Stats.comb_depth >= 1);
  Alcotest.(check bool) "fanout sane" true
    (s.Netlist.Stats.avg_fanout >= 1.0
    && s.Netlist.Stats.max_fanout >= int_of_float s.Netlist.Stats.avg_fanout)

let test_stats_comb_depth_chain () =
  (* a pure comb chain of length 5 *)
  let module D = Netlist.Design in
  let cells =
    List.init 5 (fun i ->
        D.cell ~name:(Printf.sprintf "c%d" i) ~kind:D.Comb
          ~ins:(if i = 0 then [] else [ Printf.sprintf "n%d" (i - 1) ])
          ~outs:[ Printf.sprintf "n%d" i ] ())
  in
  let d = D.design ~top:"t" ~modules:[ D.module_def ~name:"t" ~cells () ] in
  let s = Netlist.Stats.compute (Flat.elaborate d) in
  Alcotest.(check int) "depth 5" 5 s.Netlist.Stats.comb_depth

let test_stats_pp () =
  let s = Netlist.Stats.compute (Lazy.force fig1_flat) in
  let text = Format.asprintf "%a" Netlist.Stats.pp s in
  Alcotest.(check bool) "mentions macros" true (contains ~affix:"16 macros" text)

(* ---- dot ------------------------------------------------------------ *)

let test_dot_hierarchy () =
  let tree = Hier.Tree.build (Lazy.force fig1_flat) in
  let dot = Viz.Dot.hierarchy tree () in
  Alcotest.(check bool) "digraph header" true (contains ~affix:"digraph HT" dot);
  Alcotest.(check bool) "top node present" true (contains ~affix:"<top>" dot);
  Alcotest.(check bool) "edges present" true (contains ~affix:"->" dot);
  (* max_depth elision *)
  let shallow = Viz.Dot.hierarchy tree ~max_depth:0 () in
  Alcotest.(check bool) "elision marker" true (contains ~affix:"more" shallow)

let test_dot_seqgraph () =
  let gseq = Seqgraph.build (Lazy.force fig1_flat) in
  let dot = Viz.Dot.seqgraph gseq () in
  Alcotest.(check bool) "digraph header" true (contains ~affix:"digraph Gseq" dot);
  Alcotest.(check bool) "macro node styled" true (contains ~affix:"lightblue" dot);
  (* width filter drops edges *)
  let filtered = Viz.Dot.seqgraph gseq ~min_width:1_000 () in
  Alcotest.(check bool) "filtered has fewer lines" true
    (String.length filtered < String.length dot)

(* ---- placement io ---------------------------------------------------- *)

let placement =
  lazy
    (let flat = Lazy.force fig1_flat in
     let r = Hidap.place flat in
     let placements = r.Hidap.placements in
     (flat, Hidap.Placement_io.make ~flat ~die:r.Hidap.die ~placements, placements))

let test_placement_roundtrip () =
  let _, pio, _ = Lazy.force placement in
  let text = Hidap.Placement_io.to_string pio in
  match Hidap.Placement_io.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok pio2 ->
    Alcotest.(check bool) "die preserved (1e-6 precision)" true
      (Rect.intersection_area pio.Hidap.Placement_io.die pio2.Hidap.Placement_io.die
       > 0.999999 *. Rect.area pio.Hidap.Placement_io.die);
    Alcotest.(check int) "entry count" 16 (List.length pio2.Hidap.Placement_io.entries);
    List.iter2
      (fun (a : Hidap.Placement_io.entry) (b : Hidap.Placement_io.entry) ->
        Alcotest.(check string) "path" a.Hidap.Placement_io.path b.Hidap.Placement_io.path;
        Alcotest.(check bool) "orient" true
          (a.Hidap.Placement_io.orient = b.Hidap.Placement_io.orient);
        Alcotest.(check bool) "rect close" true
          (Rect.intersection_area a.Hidap.Placement_io.rect b.Hidap.Placement_io.rect
           > 0.999 *. Rect.area a.Hidap.Placement_io.rect))
      pio.Hidap.Placement_io.entries pio2.Hidap.Placement_io.entries

let test_placement_resolve () =
  let flat, pio, placements = Lazy.force placement in
  match Hidap.Placement_io.resolve flat pio with
  | Error msg -> Alcotest.fail msg
  | Ok resolved ->
    List.iter2
      (fun (a : Hidap.macro_placement) (b : Hidap.macro_placement) ->
        Alcotest.(check int) "ids match" a.Hidap.fid b.Hidap.fid)
      placements resolved

let test_placement_resolve_unknown () =
  let flat, pio, _ = Lazy.force placement in
  let bad =
    { pio with
      Hidap.Placement_io.entries =
        { Hidap.Placement_io.path = "ghost/mem"; rect = Rect.make ~x:0.0 ~y:0.0 ~w:1.0 ~h:1.0;
          orient = Geom.Orientation.R0 }
        :: pio.Hidap.Placement_io.entries }
  in
  match Hidap.Placement_io.resolve flat bad with
  | Error msg -> Alcotest.(check bool) "names the path" true (contains ~affix:"ghost/mem" msg)
  | Ok _ -> Alcotest.fail "expected resolve failure"

let test_placement_parse_errors () =
  let check_err name src =
    match Hidap.Placement_io.of_string src with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": expected error")
  in
  check_err "empty" "";
  check_err "bad header" "nope 0 0 1 1";
  check_err "bad rect" "die 0 0 10 10\nm a b c d R0";
  check_err "bad orientation" "die 0 0 10 10\nm 0 0 1 1 R45";
  check_err "short line" "die 0 0 10 10\nm 0 0 1"

let test_placement_comments_and_blanks () =
  let src = "# saved by test\ndie 0 0 10 10\n\nm 1 2 3 4 MX\n" in
  match Hidap.Placement_io.of_string src with
  | Error msg -> Alcotest.fail msg
  | Ok pio ->
    Alcotest.(check int) "one entry" 1 (List.length pio.Hidap.Placement_io.entries);
    let e = List.hd pio.Hidap.Placement_io.entries in
    Alcotest.(check bool) "orientation read" true
      (e.Hidap.Placement_io.orient = Geom.Orientation.MX)

let test_placement_file_io () =
  let _, pio, _ = Lazy.force placement in
  let path = Filename.temp_file "hidap" ".place" in
  Hidap.Placement_io.save path pio;
  (match Hidap.Placement_io.load path with
  | Ok pio2 ->
    Alcotest.(check int) "entries preserved"
      (List.length pio.Hidap.Placement_io.entries)
      (List.length pio2.Hidap.Placement_io.entries)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  match Hidap.Placement_io.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected load failure on missing file"

let suite =
  [ ( "netlist.stats",
      [ Alcotest.test_case "counts" `Quick test_stats_counts;
        Alcotest.test_case "comb depth" `Quick test_stats_comb_depth_chain;
        Alcotest.test_case "pretty print" `Quick test_stats_pp ] );
    ( "viz.dot",
      [ Alcotest.test_case "hierarchy" `Quick test_dot_hierarchy;
        Alcotest.test_case "seqgraph" `Quick test_dot_seqgraph ] );
    ( "hidap.placement_io",
      [ Alcotest.test_case "roundtrip" `Quick test_placement_roundtrip;
        Alcotest.test_case "resolve" `Quick test_placement_resolve;
        Alcotest.test_case "resolve unknown" `Quick test_placement_resolve_unknown;
        Alcotest.test_case "parse errors" `Quick test_placement_parse_errors;
        Alcotest.test_case "comments and blanks" `Quick test_placement_comments_and_blanks;
        Alcotest.test_case "file io" `Quick test_placement_file_io ] ) ]
