(* Tests for the circuit generator, the baselines, the report tables and
   the visualization back-ends. *)

module D = Netlist.Design
module Flat = Netlist.Flat
module Rect = Geom.Rect

let qtest ?(count = 20) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ---- circuitgen ----------------------------------------------------- *)

let test_gen_macro_count_exact () =
  List.iter
    (fun n_macros ->
      let p = Circuitgen.Gen.scale_macros Circuitgen.Gen.default ~n_macros in
      let flat = Flat.elaborate (Circuitgen.Gen.generate p) in
      Alcotest.(check int)
        (Printf.sprintf "exactly %d macros" n_macros)
        n_macros (Flat.macro_count flat))
    [ 1; 7; 16; 33 ]

let test_gen_deterministic () =
  let p = Circuitgen.Gen.default in
  Alcotest.(check bool) "same params, same design" true
    (Circuitgen.Gen.generate p = Circuitgen.Gen.generate p);
  let p2 = { p with Circuitgen.Gen.seed = p.Circuitgen.Gen.seed + 1 } in
  Alcotest.(check bool) "seed changes macro jitter" false
    (Circuitgen.Gen.generate p = Circuitgen.Gen.generate p2)

let test_gen_cell_budget () =
  let p = { Circuitgen.Gen.default with Circuitgen.Gen.target_cells = 5_000 } in
  let flat = Flat.elaborate (Circuitgen.Gen.generate p) in
  let cells = Flat.cell_count flat in
  Alcotest.(check bool) "within 30% of the budget" true
    (abs (cells - 5_000) < 1_500)

let test_gen_hierarchy_shape () =
  let p = { Circuitgen.Gen.default with Circuitgen.Gen.n_subsystems = 3 } in
  let flat = Flat.elaborate (Circuitgen.Gen.generate p) in
  let top = flat.Flat.scopes.(0) in
  (* subsystems + glue sidecars + connectors *)
  Alcotest.(check bool) "top has children" true (List.length top.Flat.schildren >= 3);
  Alcotest.(check bool) "three levels deep" true
    (Array.exists
       (fun (s : Flat.scope) ->
         s.Flat.sparent >= 0 && flat.Flat.scopes.(s.Flat.sparent).Flat.sparent >= 0)
       flat.Flat.scopes)

let gen_always_validates =
  qtest "random generator params yield valid designs"
    QCheck.(quad (int_range 1 4) (int_range 1 4) (int_range 0 40) (int_range 1 16))
    (fun (ss, ups, macros, bw) ->
      let p =
        { Circuitgen.Gen.default with
          Circuitgen.Gen.n_subsystems = ss;
          units_per_subsystem = ups;
          n_macros = macros;
          bus_width = bw;
          target_cells = 500 }
      in
      match D.validate (Circuitgen.Gen.generate p) with Ok () -> true | Error _ -> false)

let test_suite_matches_paper () =
  let suite = Circuitgen.Suite.c_suite () in
  Alcotest.(check int) "eight circuits" 8 (List.length suite);
  List.iter
    (fun (c : Circuitgen.Suite.circuit) ->
      match Report.Paper_data.find c.Circuitgen.Suite.cname with
      | None -> Alcotest.failf "%s missing from paper data" c.Circuitgen.Suite.cname
      | Some row ->
        Alcotest.(check int) "macro count matches Table III"
          row.Report.Paper_data.macros c.Circuitgen.Suite.paper_macros;
        Alcotest.(check int) "generated macros match"
          c.Circuitgen.Suite.paper_macros
          (Circuitgen.Gen.macro_count c.Circuitgen.Suite.params);
        Alcotest.(check int) "cells scaled 1:100"
          (c.Circuitgen.Suite.paper_cells / 100)
          c.Circuitgen.Suite.params.Circuitgen.Gen.target_cells)
    suite

let test_fig2_structure () =
  let flat = Flat.elaborate (Circuitgen.Suite.fig2_system ()) in
  Alcotest.(check int) "four macros (A-D)" 4 (Flat.macro_count flat);
  (* X is cells-only: find its scope *)
  let x =
    Array.to_list flat.Flat.scopes
    |> List.find (fun (s : Flat.scope) -> s.Flat.spath = "blk_x")
  in
  List.iter
    (fun cid ->
      Alcotest.(check bool) "X has no macros" false (Flat.is_macro flat.Flat.nodes.(cid)))
    x.Flat.scells

(* ---- baselines ------------------------------------------------------ *)

let baseline_setup =
  lazy
    (let flat = Flat.elaborate (Circuitgen.Suite.fig1_design ()) in
     let gseq = Seqgraph.build flat in
     let die = Hidap.die_for flat ~config:Hidap.Config.default in
     let ports = Hidap.Port_plan.make gseq ~die in
     (flat, gseq, die, ports))

let test_legalize () =
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:100.0 ~h:100.0 in
  let overlapping =
    [| Rect.make ~x:10.0 ~y:10.0 ~w:20.0 ~h:20.0;
       Rect.make ~x:15.0 ~y:12.0 ~w:20.0 ~h:20.0;
       Rect.make ~x:12.0 ~y:18.0 ~w:20.0 ~h:20.0 |]
  in
  Alcotest.(check bool) "initially overlapping" true
    (Hidap.Legalize.total_overlap overlapping > 0.0);
  let fixed = Hidap.Legalize.separate ~die overlapping in
  Alcotest.(check bool) "separated" true (Hidap.Legalize.total_overlap fixed < 1e-3);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "inside die" true (Rect.contains_rect ~outer:die ~inner:r))
    fixed

let test_legalize_clamps_outside () =
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:50.0 ~h:50.0 in
  let out = [| Rect.make ~x:(-10.0) ~y:60.0 ~w:20.0 ~h:20.0 |] in
  let fixed = Hidap.Legalize.separate ~die out in
  Alcotest.(check bool) "clamped into die" true
    (Rect.contains_rect ~outer:die ~inner:fixed.(0))

let test_indeda_placement () =
  let flat, gseq, die, _ = Lazy.force baseline_setup in
  let pl = Baselines.Indeda.place ~flat ~gseq ~die () in
  Alcotest.(check int) "all macros" 16 (List.length pl);
  let rects = Array.of_list (List.map (fun (p : Baselines.Indeda.placement) -> p.Baselines.Indeda.rect) pl) in
  Alcotest.(check bool) "legal" true (Hidap.Legalize.total_overlap rects < 1e-3);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "inside die" true (Rect.contains_rect ~outer:die ~inner:r))
    rects;
  (* wall packing: most macros touch the first ring near the boundary *)
  let near_wall (r : Rect.t) =
    let margin = 0.22 *. min die.Rect.w die.Rect.h in
    r.Rect.x < die.Rect.x +. margin
    || r.Rect.y < die.Rect.y +. margin
    || r.Rect.x +. r.Rect.w > die.Rect.x +. die.Rect.w -. margin
    || r.Rect.y +. r.Rect.h > die.Rect.y +. die.Rect.h -. margin
  in
  let on_wall = Array.to_list rects |> List.filter near_wall |> List.length in
  Alcotest.(check bool) "mostly on the walls" true (on_wall >= 12)

let test_indeda_orderings_differ () =
  let flat, gseq, die, _ = Lazy.force baseline_setup in
  let area = Baselines.Indeda.place ~flat ~gseq ~die ~ordering:Baselines.Indeda.By_area () in
  let conn =
    Baselines.Indeda.place ~flat ~gseq ~die ~ordering:Baselines.Indeda.By_connectivity ()
  in
  let sig_of pl =
    List.map (fun (p : Baselines.Indeda.placement) -> (p.Baselines.Indeda.fid, p.Baselines.Indeda.rect)) pl
    |> List.sort compare
  in
  Alcotest.(check bool) "different placements" false (sig_of area = sig_of conn)

let test_connectivity_order_covers () =
  let _, gseq, _, _ = Lazy.force baseline_setup in
  let macro_gids =
    Array.to_list gseq.Seqgraph.nodes
    |> List.filter_map (fun (n : Seqgraph.node) ->
           if Seqgraph.is_macro_node n then Some n.Seqgraph.id else None)
  in
  let order = Baselines.Indeda.connectivity_order gseq macro_gids in
  Alcotest.(check (list int)) "permutation of the macros"
    (List.sort compare macro_gids) (List.sort compare order)

let test_handfp_placement () =
  let flat, gseq, die, ports = Lazy.force baseline_setup in
  let pl = Baselines.Handfp.place ~flat ~gseq ~ports ~die () in
  Alcotest.(check int) "all macros" 16 (List.length pl);
  let rects = Array.of_list (List.map (fun (p : Baselines.Handfp.placement) -> p.Baselines.Handfp.rect) pl) in
  Alcotest.(check bool) "legal after separation" true
    (Hidap.Legalize.total_overlap rects < 1e-3);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "inside die" true (Rect.contains_rect ~outer:die ~inner:r))
    rects

let test_handfp_deterministic () =
  let flat, gseq, die, ports = Lazy.force baseline_setup in
  let p1 = Baselines.Handfp.place ~flat ~gseq ~ports ~die () in
  let p2 = Baselines.Handfp.place ~flat ~gseq ~ports ~die () in
  Alcotest.(check bool) "identical runs" true (p1 = p2)

(* ---- report --------------------------------------------------------- *)

let test_table_render () =
  let t =
    Report.Table.render ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' t |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* all lines same width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_paper_data_consistency () =
  List.iter
    (fun (row : Report.Paper_data.circuit_rows) ->
      Alcotest.(check (float 1e-9)) "handFP normalized to 1" 1.0
        row.Report.Paper_data.handfp.Report.Paper_data.wl_norm;
      (* published norm columns match the wirelength ratios *)
      let ratio =
        row.Report.Paper_data.indeda.Report.Paper_data.wl_m
        /. row.Report.Paper_data.handfp.Report.Paper_data.wl_m
      in
      Alcotest.(check bool) "IndEDA norm consistent with meters" true
        (abs_float (ratio -. row.Report.Paper_data.indeda.Report.Paper_data.wl_norm) < 0.01))
    Report.Paper_data.table3

let test_paper_table2 () =
  let wl_i, wl_h, wl_f = Report.Paper_data.table2_wl_norm in
  Alcotest.(check (float 1e-9)) "IndEDA avg" 1.143 wl_i;
  Alcotest.(check (float 1e-9)) "HiDaP avg" 1.013 wl_h;
  Alcotest.(check (float 1e-9)) "handFP avg" 1.000 wl_f

(* ---- viz ------------------------------------------------------------ *)

let test_ascii_floorplan () =
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let s =
    Viz.Ascii.floorplan ~die
      ~rects:[ ("A", Rect.make ~x:0.0 ~y:0.0 ~w:5.0 ~h:5.0) ]
      ~width:20 ~height:10 ()
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "height" 10 (List.length lines);
  List.iter (fun l -> Alcotest.(check int) "width" 20 (String.length l)) lines;
  (* the block is in the lower-left: last content row starts with 'A' *)
  let last = List.nth lines 8 in
  Alcotest.(check char) "block char bottom-left" 'A' last.[1];
  Alcotest.(check bool) "block absent top-right" true
    (String.for_all (fun c -> c <> 'A') (List.hd lines))

let test_ascii_overlap_marker () =
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let r = Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let s = Viz.Ascii.floorplan ~die ~rects:[ ("A", r); ("B", r) ] ~width:8 ~height:4 () in
  Alcotest.(check bool) "overlap marked" true (String.contains s '#')

let test_ascii_density () =
  let grid = Array.make_matrix 4 4 0.0 in
  grid.(0).(0) <- 10.0;
  let s = Viz.Ascii.density grid ~width:8 ~height:4 () in
  Alcotest.(check bool) "hottest bin drawn" true (String.contains s '@')

let test_histogram_bar () =
  Alcotest.(check string) "half bar" "||||    " (Viz.Ascii.histogram_bar 1.0 ~max:2.0 ~width:8);
  Alcotest.(check string) "empty" "        " (Viz.Ascii.histogram_bar 0.0 ~max:2.0 ~width:8)

let test_svg_output () =
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let svg =
    Viz.Svg.floorplan ~die
      ~rects:[ ("m", Rect.make ~x:1.0 ~y:1.0 ~w:2.0 ~h:2.0, Viz.Svg.macro_style) ]
      ()
  in
  Alcotest.(check bool) "svg header" true (Util.Names.is_prefix ~prefix:"<svg" svg);
  Alcotest.(check bool) "contains rect" true
    (Astring.String.is_infix ~affix:"<rect" svg);
  Alcotest.(check bool) "contains label" true
    (Astring.String.is_infix ~affix:">m</text>" svg);
  Alcotest.(check bool) "closed" true (Astring.String.is_suffix ~affix:"</svg>\n" svg)

let test_ppm_output () =
  let grid = Array.make_matrix 4 4 1.0 in
  let ppm = Viz.Ppm.of_density grid ~pixels_per_bin:2 () in
  Alcotest.(check bool) "P6 header" true (Util.Names.is_prefix ~prefix:"P6\n8 8\n255\n" ppm);
  (* header + 8*8*3 bytes *)
  Alcotest.(check int) "payload size" (String.length "P6\n8 8\n255\n" + 192)
    (String.length ppm)

let suite =
  [ ( "circuitgen",
      [ Alcotest.test_case "exact macro counts" `Quick test_gen_macro_count_exact;
        Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
        Alcotest.test_case "cell budget" `Quick test_gen_cell_budget;
        Alcotest.test_case "hierarchy shape" `Quick test_gen_hierarchy_shape;
        Alcotest.test_case "suite matches paper" `Quick test_suite_matches_paper;
        Alcotest.test_case "fig2 structure" `Quick test_fig2_structure;
        gen_always_validates ] );
    ( "baselines",
      [ Alcotest.test_case "legalize separates" `Quick test_legalize;
        Alcotest.test_case "legalize clamps" `Quick test_legalize_clamps_outside;
        Alcotest.test_case "indeda placement" `Quick test_indeda_placement;
        Alcotest.test_case "indeda orderings differ" `Quick test_indeda_orderings_differ;
        Alcotest.test_case "connectivity order" `Quick test_connectivity_order_covers;
        Alcotest.test_case "handfp placement" `Slow test_handfp_placement;
        Alcotest.test_case "handfp deterministic" `Slow test_handfp_deterministic ] );
    ( "report",
      [ Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "paper data consistent" `Quick test_paper_data_consistency;
        Alcotest.test_case "table 2 values" `Quick test_paper_table2 ] );
    ( "viz",
      [ Alcotest.test_case "ascii floorplan" `Quick test_ascii_floorplan;
        Alcotest.test_case "ascii overlap marker" `Quick test_ascii_overlap_marker;
        Alcotest.test_case "ascii density" `Quick test_ascii_density;
        Alcotest.test_case "histogram bar" `Quick test_histogram_bar;
        Alcotest.test_case "svg output" `Quick test_svg_output;
        Alcotest.test_case "ppm output" `Quick test_ppm_output ] ) ]
