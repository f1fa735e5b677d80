(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables I-III, Figs 1-9) and runs the ablations called out
   in DESIGN.md. Timing lives in perfbench/, not here.

   Usage: dune exec bench/main.exe
   Set HIDAP_BENCH_FAST=1 to restrict the circuit suite to c1/c5 while
   iterating. Artifacts (density maps, SVG diagrams) are written to
   bench_artifacts/. *)

module Rect = Geom.Rect
module Flat = Netlist.Flat
module T = Report.Table

let artifacts_dir = "bench_artifacts"

let ensure_artifacts_dir () =
  try Unix.mkdir artifacts_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let printf = Format.printf

let fast_mode = Sys.getenv_opt "HIDAP_BENCH_FAST" <> None

let circuits () =
  let all = Circuitgen.Suite.c_suite () in
  if fast_mode then
    List.filter (fun c -> List.mem c.Circuitgen.Suite.cname [ "c1"; "c5" ]) all
  else all

(* ------------------------------------------------------------------ *)
(* Table I: data-structure sizes                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  printf "%s@." (T.section "Table I: circuit abstraction sizes (cells scaled 1:100)");
  let rows =
    List.map
      (fun (c : Circuitgen.Suite.circuit) ->
        let flat = Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
        let gseq = Seqgraph.build flat in
        let tree = Hier.Tree.build flat in
        let dc =
          Hier.Decluster.run tree ~nh:(Hier.Tree.root tree) ~open_frac:0.4 ~min_frac:0.01
        in
        let n_blocks = List.length dc.Hier.Decluster.hcb in
        [ c.Circuitgen.Suite.cname;
          string_of_int (Array.length flat.Flat.nodes);
          string_of_int (Graphlib.Digraph.edge_count flat.Flat.gnet);
          string_of_int (Seqgraph.node_count gseq);
          string_of_int (Seqgraph.edge_count gseq);
          string_of_int n_blocks ])
      (circuits ())
  in
  printf "%s@."
    (T.render
       ~header:[ "circuit"; "|Vnet|"; "|Enet|"; "|Vseq|"; "|Eseq|"; "|Vdf| (top)" ]
       rows);
  printf
    "paper magnitudes: Gnet ~1e7, Gseq ~1e5, Gdf ~1e2; at the 1:100 cell scale the@.";
  printf "expected magnitudes are Gnet ~1e5, Gseq ~1e2..1e3, Gdf ~1e1..1e2.@."

(* ------------------------------------------------------------------ *)
(* Tables II and III: the three flows on the c-suite                   *)
(* ------------------------------------------------------------------ *)

let flow_of_paper (p : Report.Paper_data.circuit_rows) = function
  | Evalflow.IndEDA -> p.Report.Paper_data.indeda
  | Evalflow.HiDaP -> p.Report.Paper_data.hidap
  | Evalflow.HandFP -> p.Report.Paper_data.handfp

let tables_2_3 () =
  printf "%s@." (T.section "Table III: per-circuit metrics for the three flows");
  ensure_artifacts_dir ();
  let results =
    List.map
      (fun (c : Circuitgen.Suite.circuit) ->
        (* Run instrumented so the QoR ledger gets stage times, the SA
           curve and GC gauges; telemetry cannot change the placement
           (see test_obs determinism case). *)
        let ev =
          Qor.Run.eval ~config:Hidap.Config.default (fun () ->
              ( c.Circuitgen.Suite.cname,
                Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) ))
        in
        let res = ev.Qor.Run.result in
        let ledger_path =
          Filename.concat artifacts_dir
            (Printf.sprintf "qor_%s.json" c.Circuitgen.Suite.cname)
        in
        Qor.Record.write_ledger ledger_path ev.Qor.Run.records;
        printf "  [done] %s (%d cells, %d macros) -> %s@." res.Evalflow.circuit
          res.Evalflow.cells res.Evalflow.macro_count ledger_path;
        (c, ev.Qor.Run.flat, res))
      (circuits ())
  in
  let rows =
    List.concat_map
      (fun ((c : Circuitgen.Suite.circuit), _, res) ->
        let paper = Report.Paper_data.find c.Circuitgen.Suite.cname in
        List.map
          (fun (r : Evalflow.run) ->
            let m = r.Evalflow.metrics in
            let paper_cells =
              match paper with
              | Some p ->
                let pr = flow_of_paper p r.Evalflow.kind in
                [ T.fmt_f 3 pr.Report.Paper_data.wl_norm;
                  T.fmt_f 2 pr.Report.Paper_data.grc_pct;
                  T.fmt_f 1 pr.Report.Paper_data.wns_pct ]
              | None -> [ "-"; "-"; "-" ]
            in
            [ res.Evalflow.circuit;
              Evalflow.flow_name r.Evalflow.kind;
              T.fmt_f 3 m.Evalflow.wl_m;
              T.fmt_f 3 (Evalflow.normalized_wl res r.Evalflow.kind);
              T.fmt_f 2 m.Evalflow.grc_pct;
              T.fmt_f 1 m.Evalflow.wns_pct;
              T.fmt_f 0 m.Evalflow.tns;
              T.fmt_f 2 m.Evalflow.runtime_s ]
            @ paper_cells)
          res.Evalflow.runs)
      results
  in
  printf "%s@."
    (T.render
       ~header:
         [ "circuit"; "flow"; "WL(m)"; "WLnorm"; "GRC%"; "WNS%"; "TNS"; "rt(s)";
           "pWLnorm"; "pGRC%"; "pWNS%" ]
       rows);
  printf "(pXXX columns are the paper's published values for the same circuit/flow)@.";
  printf "%s@." (T.section "Table II: averages over the suite");
  let geo kind =
    Util.Stat.geometric_mean
      (List.map (fun (_, _, res) -> Evalflow.normalized_wl res kind) results)
  in
  let mean_wns kind =
    Util.Stat.mean
      (List.map
         (fun (_, _, res) ->
           let r = List.find (fun (r : Evalflow.run) -> r.Evalflow.kind = kind) res.Evalflow.runs in
           r.Evalflow.metrics.Evalflow.wns_pct)
         results)
  in
  let rt_range kind =
    let rts =
      List.map
        (fun (_, _, res) ->
          let r = List.find (fun (r : Evalflow.run) -> r.Evalflow.kind = kind) res.Evalflow.runs in
          r.Evalflow.metrics.Evalflow.runtime_s)
        results
    in
    Printf.sprintf "%.2f-%.2fs" (Util.Stat.minimum rts) (Util.Stat.maximum rts)
  in
  let p_wl_i, p_wl_h, p_wl_f = Report.Paper_data.table2_wl_norm in
  let p_wns_i, p_wns_h, p_wns_f = Report.Paper_data.table2_wns in
  let e_i, e_h, e_f = Report.Paper_data.table2_effort in
  let row kind p_wl p_wns p_effort =
    [ Evalflow.flow_name kind;
      T.fmt_f 3 (geo kind);
      T.fmt_f 1 (mean_wns kind);
      rt_range kind;
      T.fmt_f 3 p_wl;
      T.fmt_f 1 p_wns;
      p_effort ]
  in
  printf "%s@."
    (T.render
       ~header:[ "flow"; "WL(geo)"; "WNS%"; "effort"; "pWL"; "pWNS%"; "pEffort" ]
       [ row Evalflow.IndEDA p_wl_i p_wns_i e_i;
         row Evalflow.HiDaP p_wl_h p_wns_h e_h;
         row Evalflow.HandFP p_wl_f p_wns_f e_f ]);
  results

(* ------------------------------------------------------------------ *)
(* Fig 1: multi-level floorplan evolution                              *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  printf "%s@." (T.section "Fig 1: multi-level floorplan of the 16-macro design");
  let flat = Flat.elaborate (Circuitgen.Suite.fig1_design ()) in
  let r = Hidap.place flat in
  let max_depth =
    List.fold_left (fun acc (l : Hidap.Floorplan.level_info) -> max acc l.Hidap.Floorplan.depth)
      0 r.Hidap.levels
  in
  for depth = 0 to min 2 max_depth do
    let rects =
      List.filter_map
        (fun (l : Hidap.Floorplan.level_info) ->
          if l.Hidap.Floorplan.depth = depth then
            Some
              ( (if l.Hidap.Floorplan.macro_count > 0 then
                   string_of_int l.Hidap.Floorplan.macro_count
                 else "c"),
                l.Hidap.Floorplan.rect )
          else None)
        r.Hidap.levels
    in
    printf "level %d: %d blocks (digits = macro count, c = cells only)@." depth
      (List.length rects);
    printf "%s@." (Viz.Ascii.floorplan ~die:r.Hidap.die ~rects ~width:48 ~height:20 ())
  done;
  let rects =
    List.map (fun (p : Hidap.macro_placement) -> ("M", p.Hidap.rect)) r.Hidap.placements
  in
  printf "final macro placement (%d macros, overlap %.2f):@." (List.length rects)
    (Hidap.overlap_area r);
  printf "%s@." (Viz.Ascii.floorplan ~die:r.Hidap.die ~rects ~width:48 ~height:20 ())

(* ------------------------------------------------------------------ *)
(* Figs 2-3: block flow vs macro flow                                  *)
(* ------------------------------------------------------------------ *)

let figs_2_3 () =
  printf "%s@." (T.section "Figs 2-3: block flow vs macro flow on the 4-block system");
  let design = Circuitgen.Suite.fig2_system () in
  let flat = Flat.elaborate design in
  let gseq = Seqgraph.build flat in
  let config = Hidap.Config.default in
  let die = Hidap.die_for flat ~config in
  let ports = Hidap.Port_plan.make gseq ~die in
  List.iter
    (fun (lambda, label) ->
      let config = Hidap.Config.with_lambda config lambda in
      let r = Hidap.place ~config ~die flat in
      let m, _ = Evalflow.measure ~flat ~gseq ~ports ~die ~macros:r.Hidap.placements in
      printf "lambda=%.1f (%s): WL=%.0f um, overlap=%.1f@." lambda label m.Evalflow.wl_um
        (Hidap.overlap_area r);
      match r.Hidap.top with
      | Some top ->
        let rects =
          Array.to_list
            (Array.mapi
               (fun i (b : Hidap.Block.t) ->
                 ( (if b.Hidap.Block.macro_count > 0 then
                      String.make 1 (Char.chr (Char.code 'A' + (i mod 26)))
                    else "x"),
                   top.Hidap.Floorplan.inst_rects.(i) ))
               top.Hidap.Floorplan.inst_blocks)
        in
        printf "%s@." (Viz.Ascii.floorplan ~die ~rects ~width:40 ~height:16 ())
      | None -> ())
    [ (1.0, "block flow only, Fig 3a"); (0.0, "macro flow only, Fig 3b");
      (0.5, "blended, Fig 3c") ]

(* ------------------------------------------------------------------ *)
(* Fig 4: block area model and shape curve                             *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  printf "%s@." (T.section "Fig 4: shape curve of an 8-macro block");
  let flat = Flat.elaborate (Circuitgen.Suite.fig1_design ()) in
  let tree = Hier.Tree.build flat in
  let config = Hidap.Config.default in
  let sgamma = Hidap.Shape_curves.generate tree ~config ~rng:(Util.Rng.create 5) in
  let node8 = ref (-1) in
  for id = Hier.Tree.node_count tree - 1 downto 0 do
    if Hier.Tree.macro_count tree id = 8 then node8 := id
  done;
  let id = !node8 in
  let curve = Hidap.Shape_curves.curve sgamma id in
  printf "node %s: macro area=%.0f, total area=%.0f@."
    (Hier.Tree.node tree id).Hier.Tree.name
    (Hidap.Shape_curves.macro_area sgamma id)
    (Hier.Tree.area tree id);
  printf "Pareto points of Gamma (w, h, area):@.";
  List.iter
    (fun (w, h) -> printf "  %8.1f x %-8.1f area %10.0f@." w h (w *. h))
    (Shape.Curve.points curve);
  printf "min-area point: %s@."
    (match Shape.Curve.min_area_point curve with
    | Some (w, h) -> Printf.sprintf "%.1f x %.1f (area %.0f)" w h (w *. h)
    | None -> "unconstrained")

(* ------------------------------------------------------------------ *)
(* Figs 5-6: declustering and target-area assignment on c3'            *)
(* ------------------------------------------------------------------ *)

let figs_5_6 () =
  printf "%s@." (T.section "Figs 5-6: declustering + glue-area assignment (c3')");
  let c = match Circuitgen.Suite.find "c3" with Some c -> c | None -> assert false in
  let flat = Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
  let tree = Hier.Tree.build flat in
  let root = Hier.Tree.root tree in
  let dc = Hier.Decluster.run tree ~nh:root ~open_frac:0.4 ~min_frac:0.01 in
  printf "root area %.0f, %d macros@." (Hier.Tree.area tree root)
    (Hier.Tree.macro_count tree root);
  printf "HCB: %d blocks, HCG: %d glue nodes, cut valid: %b@."
    (List.length dc.Hier.Decluster.hcb)
    (List.length dc.Hier.Decluster.hcg)
    (Hier.Decluster.is_valid_cut tree ~nh:root
       (dc.Hier.Decluster.hcb @ dc.Hier.Decluster.hcg));
  let config = Hidap.Config.default in
  let sgamma = Hidap.Shape_curves.generate tree ~config ~rng:(Util.Rng.create 5) in
  let blocks =
    Hidap.Target_area.assign tree ~sgamma ~hcb:dc.Hier.Decluster.hcb
      ~hcg:dc.Hier.Decluster.hcg
  in
  let rows =
    Array.to_list
      (Array.map
         (fun (b : Hidap.Block.t) ->
           [ b.Hidap.Block.name;
             string_of_int b.Hidap.Block.macro_count;
             T.fmt_f 0 b.Hidap.Block.am;
             T.fmt_f 0 b.Hidap.Block.at;
             T.fmt_f 2 (b.Hidap.Block.at /. max 1e-9 b.Hidap.Block.am) ])
         blocks)
  in
  printf "%s@." (T.render ~header:[ "block"; "macros"; "am"; "at"; "at/am" ] rows);
  let am_sum = Array.fold_left (fun a (b : Hidap.Block.t) -> a +. b.Hidap.Block.am) 0.0 blocks in
  let at_sum = Array.fold_left (fun a (b : Hidap.Block.t) -> a +. b.Hidap.Block.at) 0.0 blocks in
  printf "sum am=%.0f  sum at=%.0f  root area=%.0f (at covers all cells)@." am_sum at_sum
    (Hier.Tree.area tree root)

(* ------------------------------------------------------------------ *)
(* Fig 7: dataflow inference example                                   *)
(* ------------------------------------------------------------------ *)

(* A miniature system in the spirit of Fig 7: two macro blocks A and B
   joined by two chained top-level register arrays (latency 3 from A's
   output register to B's input through two glue stages). *)
let fig7_design () =
  let module D = Netlist.Design in
  let w = 8 in
  let bits p = List.init w (fun i -> Printf.sprintf "%s_%d" p i) in
  let blockm name =
    let cells =
      D.cell ~name:"mem0" ~kind:(D.make_macro ~w:40.0 ~h:30.0) ~ins:(bits "in")
        ~outs:(bits "q") ()
      :: List.concat
           (List.mapi
              (fun i out ->
                [ D.cell
                    ~name:(Printf.sprintf "ro_%d" i)
                    ~kind:D.Flop
                    ~ins:[ Printf.sprintf "q_%d" i ]
                    ~outs:[ out ] () ])
              (bits "out"))
    in
    let ports =
      List.map (fun n -> D.port ~name:n ~dir:D.Input) (bits "in")
      @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bits "out")
    in
    D.module_def ~name ~ports ~cells ()
  in
  let top =
    let stage prefix src =
      List.concat
        (List.mapi
           (fun i s ->
             [ D.cell
                 ~name:(Printf.sprintf "%s_%d" prefix i)
                 ~kind:D.Flop ~ins:[ s ]
                 ~outs:[ Printf.sprintf "%sq_%d" prefix i ]
                 () ])
           src)
    in
    let cells = stage "g1" (bits "aout") @ stage "g2" (bits "g1q") in
    let insts =
      [ D.inst ~name:"ba" ~module_:"f7a"
          ~bindings:
            (List.map2 (fun f a -> (f, a)) (bits "in") (bits "pin")
            @ List.map2 (fun f a -> (f, a)) (bits "out") (bits "aout"));
        D.inst ~name:"bb" ~module_:"f7b"
          ~bindings:
            (List.map2 (fun f a -> (f, a)) (bits "in") (bits "g2q")
            @ List.map2 (fun f a -> (f, a)) (bits "out") (bits "pout")) ]
    in
    let ports =
      List.map (fun n -> D.port ~name:n ~dir:D.Input) (bits "pin")
      @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bits "pout")
    in
    D.module_def ~name:"f7top" ~ports ~cells ~insts ()
  in
  D.design ~top:"f7top" ~modules:[ top; blockm "f7a"; blockm "f7b" ]

let fig7 () =
  printf "%s@." (T.section "Fig 7: Gseq -> Gdf dataflow inference");
  let flat = Flat.elaborate (fig7_design ()) in
  let gseq = Seqgraph.build flat in
  printf "%a@." Seqgraph.pp_summary gseq;
  let scope_block = Hashtbl.create 4 in
  Array.iter
    (fun (s : Flat.scope) ->
      if s.Flat.spath = "ba" then Hashtbl.replace scope_block s.Flat.sid 0;
      if s.Flat.spath = "bb" then Hashtbl.replace scope_block s.Flat.sid 1)
    flat.Flat.scopes;
  let block_of_node gid =
    let nd = gseq.Seqgraph.nodes.(gid) in
    if Seqgraph.is_port_node nd then -1
    else
      match Hashtbl.find_opt scope_block nd.Seqgraph.scope with
      | Some b -> b
      | None -> -1
  in
  let fixed =
    Array.of_list
      (List.filter_map
         (fun (nd : Seqgraph.node) ->
           if Seqgraph.is_port_node nd then Some nd.Seqgraph.id else None)
         (Array.to_list gseq.Seqgraph.nodes))
  in
  let gdf = Dataflow.Gdf.build gseq ~n_blocks:2 ~block_of_node ~fixed in
  printf "block flow A->B histogram: %a@." Util.Histogram.pp (Dataflow.Gdf.block_flow gdf 0 1);
  printf "macro flow A->B histogram: %a@." Util.Histogram.pp (Dataflow.Gdf.macro_flow gdf 0 1);
  List.iter
    (fun k ->
      printf "score(block,k=%d)=%.2f score(macro,k=%d)=%.2f@." k
        (Util.Histogram.score (Dataflow.Gdf.block_flow gdf 0 1) ~k)
        k
        (Util.Histogram.score (Dataflow.Gdf.macro_flow gdf 0 1) ~k))
    [ 0; 1; 2 ];
  let m = Dataflow.Gdf.affinity_matrix gdf ~lambda:0.5 ~k:2 () in
  printf "affinity(A,B) with lambda=0.5, k=2: %.3f@." m.(0).(1)

(* ------------------------------------------------------------------ *)
(* Fig 8: top-down area-budgeted slicing layout                        *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  printf "%s@." (T.section "Fig 8: top-down area budgeting in a 3x3 budget");
  let open Slicing in
  let leaves =
    Array.of_list
      (List.mapi
         (fun i at ->
           { Layout.lid = i; curve = Shape.Curve.unconstrained; area_min = at;
             area_target = at })
         [ 1.0; 2.0; 1.5; 2.0; 2.5 ])
  in
  let expr =
    Polish.of_elements
      [| Polish.Operand 0; Polish.Operand 1; Polish.Operator Polish.V;
         Polish.Operand 2; Polish.Operator Polish.H; Polish.Operand 3;
         Polish.Operand 4; Polish.Operator Polish.V; Polish.Operator Polish.H |]
  in
  let budget = Rect.make ~x:0.0 ~y:0.0 ~w:3.0 ~h:3.0 in
  let placement = Layout.evaluate expr ~leaves ~budget in
  List.iter
    (fun (lid, r) ->
      printf "  leaf %d (at=%.1f): rect %a area=%.2f@." lid
        leaves.(lid).Layout.area_target Rect.pp r (Rect.area r))
    placement.Layout.rects;
  let total =
    List.fold_left (fun acc (_, r) -> acc +. Rect.area r) 0.0 placement.Layout.rects
  in
  printf "sum of areas %.2f = budget %.2f (exact partition)@." total (Rect.area budget)

(* ------------------------------------------------------------------ *)
(* Fig 9: density maps + Gdf diagram for c3'                           *)
(* ------------------------------------------------------------------ *)

let fig9 results =
  printf "%s@." (T.section "Fig 9: density maps of c3' under the three flows");
  ensure_artifacts_dir ();
  match
    List.find_opt
      (fun ((c : Circuitgen.Suite.circuit), _, _) -> c.Circuitgen.Suite.cname = "c3")
      results
  with
  | None -> printf "(c3 not in the fast suite; skipped)@."
  | Some (_, flat, res) ->
    List.iter
      (fun (r : Evalflow.run) ->
        let grid = Evalflow.density_map r ~flat ~bins:24 in
        printf "%s (WL %.3fm):@." (Evalflow.flow_name r.Evalflow.kind)
          r.Evalflow.metrics.Evalflow.wl_m;
        printf "%s@." (Viz.Ascii.density grid ~width:48 ~height:18 ());
        let path =
          Filename.concat artifacts_dir
            (Printf.sprintf "fig9_density_%s.ppm" (Evalflow.flow_name r.Evalflow.kind))
        in
        Viz.Ppm.write_file path (Viz.Ppm.of_density grid ());
        printf "  wrote %s@." path)
      res.Evalflow.runs;
    (* The Gdf diagram must show the placement of the density map above:
       the sweep's winning lambda, checked macro for macro. *)
    let run =
      List.find (fun (r : Evalflow.run) -> r.Evalflow.kind = Evalflow.HiDaP) res.Evalflow.runs
    in
    let config =
      { Hidap.Config.default with Hidap.Config.lambda = Option.get run.Evalflow.lambda_used }
    in
    let r = Hidap.place ~config ~die:(Hidap.die_for flat ~config) flat in
    if r.Hidap.placements <> run.Evalflow.macros then
      failwith "fig9: re-placing c3 at the sweep's lambda differs from the HiDaP run";
    (match r.Hidap.top with
    | Some top ->
      let blocks =
        Array.to_list
          (Array.mapi
             (fun i (b : Hidap.Block.t) ->
               ( b.Hidap.Block.name,
                 top.Hidap.Floorplan.inst_rects.(i),
                 b.Hidap.Block.macro_count ))
             top.Hidap.Floorplan.inst_blocks)
      in
      let n = List.length blocks in
      let aff = Array.make_matrix n n 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          aff.(i).(j) <- top.Hidap.Floorplan.inst_affinity.(i).(j)
        done
      done;
      let svg = Viz.Svg.dataflow_diagram ~die:r.Hidap.die ~blocks ~affinity:aff () in
      let path = Filename.concat artifacts_dir "fig9d_gdf_c3.svg" in
      Viz.Svg.write_file path svg;
      printf "wrote %s (top-level Gdf block diagram)@." path
    | None -> ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  printf "%s@." (T.section "Ablations (circuit c1')");
  let c = match Circuitgen.Suite.find "c1" with Some c -> c | None -> assert false in
  let design = Circuitgen.Gen.generate c.Circuitgen.Suite.params in
  let flat = Flat.elaborate design in
  let config = Hidap.Config.default in
  let gseq = Seqgraph.build ~bit_threshold:config.Hidap.Config.bit_threshold flat in
  let die = Hidap.die_for flat ~config in
  let ports = Hidap.Port_plan.make gseq ~die in
  let wl_of_macros macros =
    let m, _ = Evalflow.measure ~flat ~gseq ~ports ~die ~macros in
    m.Evalflow.wl_um
  in
  let wl_of_result (r : Hidap.result) = wl_of_macros r.Hidap.placements in
  printf "-- lambda (block vs macro flow blend):@.";
  let rows =
    List.map
      (fun lambda ->
        let r = Hidap.place ~config:(Hidap.Config.with_lambda config lambda) ~die flat in
        [ T.fmt_f 1 lambda; T.fmt_f 0 (wl_of_result r) ])
      [ 0.0; 0.2; 0.5; 0.8; 1.0 ]
  in
  printf "%s@." (T.render ~header:[ "lambda"; "WL(um)" ] rows);
  printf "-- k (latency decay exponent):@.";
  let rows =
    List.map
      (fun k ->
        let r = Hidap.place ~config:{ config with Hidap.Config.k } ~die flat in
        [ string_of_int k; T.fmt_f 0 (wl_of_result r) ])
      [ 0; 1; 2; 4 ]
  in
  printf "%s@." (T.render ~header:[ "k"; "WL(um)" ] rows);
  printf "-- macro flipping post-process:@.";
  let r = Hidap.place ~config ~die flat in
  let with_flip = wl_of_result r in
  let without_flip =
    wl_of_macros
      (List.map
         (fun (p : Hidap.macro_placement) -> { p with Hidap.orient = Geom.Orientation.R0 })
         r.Hidap.placements)
  in
  printf "%s@."
    (T.render ~header:[ "variant"; "WL(um)" ]
       [ [ "flipping on"; T.fmt_f 0 with_flip ];
         [ "flipping off (all R0)"; T.fmt_f 0 without_flip ] ]);
  printf "-- declustering thresholds (open_frac / min_frac):@.";
  let rows =
    List.map
      (fun (open_frac, min_frac) ->
        let config = { config with Hidap.Config.open_frac; min_frac } in
        let r = Hidap.place ~config ~die flat in
        [ Printf.sprintf "%.2f / %.3f" open_frac min_frac; T.fmt_f 0 (wl_of_result r) ])
      [ (0.4, 0.01); (0.2, 0.01); (0.6, 0.01); (0.4, 0.05) ]
  in
  printf "%s@." (T.render ~header:[ "open/min"; "WL(um)" ] rows);
  printf "-- IndEDA wall-packing order:@.";
  let indeda ordering =
    wl_of_macros (Baselines.Indeda.place ~flat ~gseq ~die ~ordering ())
  in
  printf "%s@."
    (T.render ~header:[ "ordering"; "WL(um)" ]
       [ [ "by area (commercial proxy)"; T.fmt_f 0 (indeda Baselines.Indeda.By_area) ];
         [ "by connectivity chain"; T.fmt_f 0 (indeda Baselines.Indeda.By_connectivity) ] ])

(* ------------------------------------------------------------------ *)
(* Observability: per-circuit stage timings + SA convergence curves    *)
(* ------------------------------------------------------------------ *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let observability () =
  printf "%s@."
    (T.section "Observability: stage timings and SA acceptance curves");
  ensure_artifacts_dir ();
  List.iter
    (fun (c : Circuitgen.Suite.circuit) ->
      let cname = c.Circuitgen.Suite.cname in
      let flat = Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
      let (_ : Hidap.result), spans = Obs.Trace.instrumented (fun () -> Hidap.place flat) in
      let trace_path =
        Filename.concat artifacts_dir (Printf.sprintf "trace_%s.json" cname)
      in
      Obs.Trace.write_chrome_file trace_path spans;
      let metrics_path =
        Filename.concat artifacts_dir (Printf.sprintf "metrics_%s.json" cname)
      in
      Obs.Jsonx.write_file metrics_path
        (Obs.Metrics.to_json ~counters:Obs.Perf.global Obs.Metrics.global);
      let curve_names =
        List.filter
          (has_prefix ~prefix:"sa.curve.level")
          (Obs.Metrics.names Obs.Metrics.global)
      in
      let curve_path =
        Filename.concat artifacts_dir (Printf.sprintf "sa_curves_%s.csv" cname)
      in
      let oc = open_out curve_path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc "level,moves,acceptance_rate\n";
          List.iter
            (fun name ->
              let level = String.sub name 14 (String.length name - 14) in
              List.iter
                (fun (x, y) ->
                  output_string oc (Printf.sprintf "%s,%.0f,%.4f\n" level x y))
                (Obs.Metrics.series_points Obs.Metrics.global name))
            curve_names);
      printf "%s: stage tree@." cname;
      printf "%s@." (Obs.Trace.summary spans);
      List.iter
        (fun name ->
          let samples = Obs.Metrics.hist_samples Obs.Metrics.global name in
          if samples <> [] then
            printf "  %s: %d plateaus, mean %.3f, p50 %.3f@." name
              (List.length samples)
              (Util.Stat.mean samples)
              (Obs.Metrics.percentile samples ~p:50.0))
        (List.filter
           (has_prefix ~prefix:"sa.acceptance.level")
           (Obs.Metrics.names Obs.Metrics.global));
      printf "  wrote %s, %s, %s@." trace_path metrics_path curve_path;
      printf "  perf: %s@."
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              (Obs.Perf.to_assoc Obs.Perf.global))))
    (circuits ())

(* ------------------------------------------------------------------ *)
(* Suite-level QoR summary: one JSON per bench run at the repo root so *)
(* the QoR trajectory accumulates across commits (BENCH_<date>.json).  *)
(* ------------------------------------------------------------------ *)

let suite_summary results ~elapsed_s =
  let module J = Obs.Jsonx in
  let tm = Unix.localtime (Unix.time ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday
  in
  let geo kind =
    Util.Stat.geometric_mean
      (List.map (fun (_, _, res) -> Evalflow.normalized_wl res kind) results)
  in
  let per_circuit =
    List.map
      (fun ((c : Circuitgen.Suite.circuit), _, res) ->
        ( c.Circuitgen.Suite.cname,
          J.Obj
            [ ("cells", J.Int res.Evalflow.cells);
              ("macros", J.Int res.Evalflow.macro_count);
              ( "flows",
                J.Obj
                  (List.map
                     (fun (r : Evalflow.run) ->
                       let m = r.Evalflow.metrics in
                       ( Evalflow.flow_name r.Evalflow.kind,
                         J.Obj
                           [ ("wl_m", J.Float m.Evalflow.wl_m);
                             ( "wl_norm",
                               J.Float (Evalflow.normalized_wl res r.Evalflow.kind) );
                             ("grc_pct", J.Float m.Evalflow.grc_pct);
                             ("wns_pct", J.Float m.Evalflow.wns_pct);
                             ("tns", J.Float m.Evalflow.tns);
                             ("runtime_s", J.Float m.Evalflow.runtime_s) ] ))
                     res.Evalflow.runs) ) ] ))
      results
  in
  let doc =
    J.Obj
      [ ("schema", J.String "hidap-bench-summary");
        ("version", J.Int 2);
        ("date", J.String date);
        ("fast_mode", J.Bool fast_mode);
        ("total_bench_s", J.Float elapsed_s);
        ( "wl_geo_norm",
          J.Obj
            (List.map
               (fun kind -> (Evalflow.flow_name kind, J.Float (geo kind)))
               [ Evalflow.IndEDA; Evalflow.HiDaP; Evalflow.HandFP ]) );
        ("circuits", J.Obj per_circuit) ]
  in
  let path = Printf.sprintf "BENCH_%s.json" date in
  J.write_file path doc;
  printf "wrote %s (suite QoR summary, %d circuits)@." path (List.length results)

let () =
  let t0 = Obs.Clock.now_s () in
  printf "HiDaP benchmark harness — reproduces every table and figure of the paper.@.";
  if fast_mode then printf "(HIDAP_BENCH_FAST set: suite restricted to c1/c5)@.";
  table1 ();
  let results = tables_2_3 () in
  fig1 ();
  figs_2_3 ();
  fig4 ();
  figs_5_6 ();
  fig7 ();
  fig8 ();
  fig9 results;
  ablations ();
  observability ();
  let elapsed_s = Obs.Clock.now_s () -. t0 in
  suite_summary results ~elapsed_s;
  printf "@.total bench time: %.1fs@." elapsed_s
