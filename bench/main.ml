(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables I-III, Figs 1-9), runs the ablations called out in
   DESIGN.md, and times the core algorithms with Bechamel.

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
        let design = Circuitgen.Gen.generate c.Circuitgen.Suite.params in
        let flat = Flat.elaborate design in
        (* Run instrumented so the QoR ledger gets stage times, the SA
           curve and GC gauges; telemetry cannot change the placement
           (see test_obs determinism case). *)
        Obs.Metrics.reset Obs.Metrics.global;
        Obs.Metrics.set_enabled true;
        Obs.Perf.reset Obs.Perf.global;
        Obs.Perf.set_enabled true;
        let gc_before = Obs.Gcstats.snapshot () in
        Obs.Trace.start ();
        let res =
          Fun.protect
            ~finally:(fun () ->
              Obs.Metrics.set_enabled false;
              Obs.Perf.set_enabled false)
            (fun () -> Evalflow.run_all ~name:c.Circuitgen.Suite.cname design)
        in
        let spans = Obs.Trace.finish () in
        let gc_delta =
          Obs.Gcstats.diff ~before:gc_before ~after:(Obs.Gcstats.snapshot ())
        in
        let sa_moves = Obs.Perf.get Obs.Perf.global Obs.Perf.sa_moves in
        let records =
          Qor.Record.of_eval ~circuit:c.Circuitgen.Suite.cname ~flat
            ~config:Hidap.Config.default ~spans ~registry:Obs.Metrics.global res
        in
        Obs.Metrics.reset Obs.Metrics.global;
        let ledger_path =
          Filename.concat artifacts_dir
            (Printf.sprintf "qor_%s.json" c.Circuitgen.Suite.cname)
        in
        Qor.Record.write_ledger ledger_path records;
        printf "  [done] %s (%d cells, %d macros) -> %s@." res.Evalflow.circuit
          res.Evalflow.cells res.Evalflow.macro_count ledger_path;
        (* Throughput of the HiDaP leg, defined exactly as in
           [hidap bench --speed-out]: the leg's measured runtime against
           the deterministic move count of the whole sweep (the other
           flows spend no SA moves). *)
        let wall_s =
          List.fold_left
            (fun acc (r : Evalflow.run) ->
              if r.Evalflow.kind = Evalflow.HiDaP then
                acc +. r.Evalflow.metrics.Evalflow.runtime_s
              else acc)
            0.0 res.Evalflow.runs
        in
        ( (c, flat, res),
          (* Peak RSS is process-wide and monotone: each entry records
             the high-water mark up to and including its circuit. *)
          Qor.Speed.entry ~peak_rss_kb:(Obs.Gcstats.peak_rss_kb ())
            ~major_words:gc_delta.Obs.Gcstats.major_words
            ~circuit:c.Circuitgen.Suite.cname ~wall_s ~sa_moves () ))
      (circuits ())
  in
  let results, speed = (List.map fst results, List.map snd results) in
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
  (results, speed)

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
      let m, _ =
        Evalflow.measure ~flat ~gseq ~ports ~die
          ~macros:
            (List.map
               (fun (p : Hidap.macro_placement) ->
                 { Cellplace.fid = p.Hidap.fid; rect = p.Hidap.rect; orient = p.Hidap.orient })
               r.Hidap.placements)
      in
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
    let r = Hidap.place flat in
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
  let wl_of_result (r : Hidap.result) =
    wl_of_macros
      (List.map
         (fun (p : Hidap.macro_placement) ->
           { Cellplace.fid = p.Hidap.fid; rect = p.Hidap.rect; orient = p.Hidap.orient })
         r.Hidap.placements)
  in
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
         (fun (p : Hidap.macro_placement) ->
           { Cellplace.fid = p.Hidap.fid; rect = p.Hidap.rect;
             orient = Geom.Orientation.R0 })
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
    wl_of_macros
      (List.map
         (fun (p : Baselines.Indeda.placement) ->
           { Cellplace.fid = p.Baselines.Indeda.fid; rect = p.Baselines.Indeda.rect;
             orient = p.Baselines.Indeda.orient })
         (Baselines.Indeda.place ~flat ~gseq ~die ~ordering ()))
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
      Obs.Metrics.reset Obs.Metrics.global;
      Obs.Metrics.set_enabled true;
      Obs.Perf.reset Obs.Perf.global;
      Obs.Perf.set_enabled true;
      Obs.Trace.start ();
      let spans =
        Fun.protect
          ~finally:(fun () ->
            Obs.Metrics.set_enabled false;
            Obs.Perf.set_enabled false)
          (fun () ->
            let (_ : Hidap.result) = Hidap.place flat in
            Obs.Trace.finish ())
      in
      let trace_path =
        Filename.concat artifacts_dir (Printf.sprintf "trace_%s.json" cname)
      in
      Obs.Trace.write_chrome_file trace_path spans;
      let metrics_path =
        Filename.concat artifacts_dir (Printf.sprintf "metrics_%s.json" cname)
      in
      Obs.Jsonx.write_file metrics_path (Obs.Metrics.to_json Obs.Metrics.global);
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
              (Obs.Perf.to_assoc Obs.Perf.global)));
      Obs.Metrics.reset Obs.Metrics.global)
    (circuits ())

(* ------------------------------------------------------------------ *)
(* Speed: throughput table, counter-overhead budget, baseline deltas   *)
(* ------------------------------------------------------------------ *)

let speed_baselines_path = Filename.concat "bench" "speed_baselines.json"

let speed_table (speed : Qor.Speed.entry list) =
  printf "%s@." (T.section "Speed: placement throughput per circuit");
  printf "%s@."
    (T.render
       ~header:[ "circuit"; "wall(s)"; "sa_moves"; "moves/s"; "peak_rss(MB)"; "major_Mw" ]
       (List.map
          (fun (e : Qor.Speed.entry) ->
            [ e.Qor.Speed.circuit; T.fmt_f 2 e.Qor.Speed.wall_s;
              string_of_int e.Qor.Speed.sa_moves; T.fmt_f 0 e.Qor.Speed.moves_per_s;
              (if e.Qor.Speed.peak_rss_kb > 0 then
                 T.fmt_f 1 (float_of_int e.Qor.Speed.peak_rss_kb /. 1024.0)
               else "-");
              T.fmt_f 1 (e.Qor.Speed.major_words /. 1e6) ])
          speed));
  if Sys.file_exists speed_baselines_path then begin
    match Qor.Speed.load speed_baselines_path with
    | Ok base ->
      printf "speed vs %s (report-only):@." speed_baselines_path;
      print_string
        (Qor.Speed.render
           (Qor.Speed.compare_to ~baseline:base { Qor.Speed.entries = speed }))
    | Error msg -> printf "(speed comparison skipped: %s)@." msg
  end
  else printf "(no %s: speed comparison skipped)@." speed_baselines_path

(* The ≤2%% budget from DESIGN.md §12: enabling the perf counters may
   not cost more than 2%% wall-clock on c5. Min-of-3 on both sides
   discounts one-off scheduler noise; a small absolute floor keeps the
   assertion meaningful should c5 ever get very fast. *)
let overhead_check () =
  printf "%s@." (T.section "Perf-counter overhead budget (c5, min of 3)");
  let c = match Circuitgen.Suite.find "c5" with Some c -> c | None -> assert false in
  let flat = Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
  let time_place () =
    let t0 = Obs.Clock.now_s () in
    let (_ : Hidap.result) = Hidap.place flat in
    Obs.Clock.now_s () -. t0
  in
  let min3 f =
    let a = f () in
    let b = f () in
    let c = f () in
    Float.min a (Float.min b c)
  in
  let disabled_s = min3 time_place in
  Obs.Perf.reset Obs.Perf.global;
  Obs.Perf.set_enabled true;
  let enabled_s =
    Fun.protect ~finally:(fun () -> Obs.Perf.set_enabled false) (fun () -> min3 time_place)
  in
  let overhead_pct = 100.0 *. ((enabled_s /. disabled_s) -. 1.0) in
  printf "disabled %.3fs, enabled %.3fs: overhead %+.2f%% (budget 2%%)@." disabled_s
    enabled_s overhead_pct;
  if enabled_s > (disabled_s *. 1.02) +. 0.01 then
    failwith
      (Printf.sprintf "perf-counter overhead %.2f%% exceeds the 2%% budget" overhead_pct);
  overhead_pct

(* Attribution must be free: enabling the metrics layer — which turns
   on the per-plateau term observer and the best-eval capture in the SA
   cost closure — has to place bit-identically to a bare run on c1/c5
   at jobs 1/2, inside the same ≤2% wall-clock budget as the perf
   counters (min-of-3 on c5, same absolute floor). *)
let attribution_check () =
  printf "%s@."
    (T.section "Cost-term attribution: determinism (c1/c5, jobs 1/2) + overhead (c5)");
  let place_with ~metrics ~jobs flat =
    let config = { Hidap.Config.default with Hidap.Config.jobs } in
    if metrics then begin
      Obs.Metrics.reset Obs.Metrics.global;
      Obs.Metrics.set_enabled true
    end;
    Fun.protect
      ~finally:(fun () ->
        if metrics then begin
          Obs.Metrics.set_enabled false;
          Obs.Metrics.reset Obs.Metrics.global
        end)
      (fun () -> Hidap.place ~config flat)
  in
  let same (a : Hidap.result) (b : Hidap.result) =
    List.length a.Hidap.placements = List.length b.Hidap.placements
    && List.for_all2
         (fun (x : Hidap.macro_placement) (y : Hidap.macro_placement) ->
           x.Hidap.fid = y.Hidap.fid
           && x.Hidap.orient = y.Hidap.orient
           && x.Hidap.rect = y.Hidap.rect)
         a.Hidap.placements b.Hidap.placements
  in
  List.iter
    (fun cname ->
      let c =
        match Circuitgen.Suite.find cname with Some c -> c | None -> assert false
      in
      let flat = Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
      List.iter
        (fun jobs ->
          let plain = place_with ~metrics:false ~jobs flat in
          let attributed = place_with ~metrics:true ~jobs flat in
          let ok = same plain attributed in
          printf "  %s jobs=%d: attribution-enabled placement identical: %b@." cname
            jobs ok;
          if not ok then
            failwith
              (Printf.sprintf "attribution changed the %s placement at jobs=%d" cname
                 jobs))
        [ 1; 2 ])
    [ "c1"; "c5" ];
  let c = match Circuitgen.Suite.find "c5" with Some c -> c | None -> assert false in
  let flat = Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
  let time ~metrics =
    let one () =
      let t0 = Obs.Clock.now_s () in
      let (_ : Hidap.result) = place_with ~metrics ~jobs:1 flat in
      Obs.Clock.now_s () -. t0
    in
    let a = one () in
    let b = one () in
    let c = one () in
    Float.min a (Float.min b c)
  in
  let disabled_s = time ~metrics:false in
  let enabled_s = time ~metrics:true in
  let pct = 100.0 *. ((enabled_s /. disabled_s) -. 1.0) in
  printf "  c5 wall: bare %.3fs, attributed %.3fs (%+.2f%%, budget 2%%)@." disabled_s
    enabled_s pct;
  if enabled_s > (disabled_s *. 1.02) +. 0.01 then
    failwith
      (Printf.sprintf "attribution overhead %.2f%% exceeds the 2%% budget" pct);
  pct

(* ------------------------------------------------------------------ *)
(* Parallel annealing: floorplan-stage speedup and determinism (c5)    *)
(* ------------------------------------------------------------------ *)

let parallel_speedup () =
  printf "%s@." (T.section "Parallel annealing: floorplan speedup + determinism (c5)");
  let c = match Circuitgen.Suite.find "c5" with Some c -> c | None -> assert false in
  let flat = Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
  let measure jobs =
    let config = { Hidap.Config.default with Hidap.Config.jobs } in
    Obs.Trace.start ();
    let t0 = Obs.Clock.now_s () in
    let r = Hidap.place ~config flat in
    let wall_s = Obs.Clock.now_s () -. t0 in
    let spans = Obs.Trace.finish () in
    let rec sum acc (s : Obs.Span.t) =
      let acc =
        if s.Obs.Span.name = "floorplan.run" then acc +. s.Obs.Span.dur_us else acc
      in
      List.fold_left sum acc s.Obs.Span.children
    in
    let floorplan_s = List.fold_left sum 0.0 spans /. 1e6 in
    (r, wall_s, floorplan_s)
  in
  let jobs_par = max 2 (Parexec.default_jobs ()) in
  let r1, wall1, fp1 = measure 1 in
  let rn, walln, fpn = measure jobs_par in
  let identical =
    List.length r1.Hidap.placements = List.length rn.Hidap.placements
    && List.for_all2
         (fun (a : Hidap.macro_placement) (b : Hidap.macro_placement) ->
           a.Hidap.fid = b.Hidap.fid
           && a.Hidap.orient = b.Hidap.orient
           && a.Hidap.rect = b.Hidap.rect)
         r1.Hidap.placements rn.Hidap.placements
  in
  printf "%s@."
    (T.render
       ~header:[ "jobs"; "wall(s)"; "floorplan(s)" ]
       [ [ "1"; T.fmt_f 2 wall1; T.fmt_f 2 fp1 ];
         [ string_of_int jobs_par; T.fmt_f 2 walln; T.fmt_f 2 fpn ] ]);
  let cores = Domain.recommended_domain_count () in
  printf "floorplan-stage speedup: %.2fx (target >= 1.5x with 2+ domains)@."
    (fp1 /. max 1e-9 fpn);
  if cores < jobs_par then
    printf
      "note: machine recommends %d domain(s) for %d jobs — oversubscribed, \
       speedup target does not apply@."
      cores jobs_par;
  printf "placements bit-identical across job counts: %b@." identical;
  if not identical then failwith "parallel determinism violated on c5"

(* ------------------------------------------------------------------ *)
(* c5 single-thread floorplan throughput gate                          *)
(* ------------------------------------------------------------------ *)

(* The committed single-thread c5 floorplan throughput immediately
   before the incremental evaluator and the staircase-merge curve
   composition landed: 1,325,312 SA moves in 45.9s of floorplan =
   ~28.9k moves/s (same machine class as bench/speed_baselines.json).
   DESIGN.md section 14's gate asserts the hot path clears 3x this
   floor; at landing time the measured margin was ~8x, so the absolute
   threshold tolerates a substantially slower machine before it could
   misfire. *)
let pre_incremental_c5_moves_per_s = 28_880.0

let throughput_gate () =
  printf "%s@." (T.section "c5 single-thread floorplan throughput gate");
  let c = match Circuitgen.Suite.find "c5" with Some c -> c | None -> assert false in
  let flat = Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
  let config = { Hidap.Config.default with Hidap.Config.jobs = 1 } in
  Obs.Perf.reset Obs.Perf.global;
  Obs.Perf.set_enabled true;
  Obs.Trace.start ();
  ignore
    (Fun.protect
       ~finally:(fun () -> Obs.Perf.set_enabled false)
       (fun () -> Hidap.place ~config flat));
  let spans = Obs.Trace.finish () in
  (* Floorplan-stage seconds (the time the evaluator actually runs —
     moves/s against whole-flow wall would dilute the gate with cell
     placement and measurement time). *)
  let rec sum acc (s : Obs.Span.t) =
    let acc =
      if s.Obs.Span.name = "floorplan.run" then acc +. s.Obs.Span.dur_us else acc
    in
    List.fold_left sum acc s.Obs.Span.children
  in
  let fp_s = List.fold_left sum 0.0 spans /. 1e6 in
  let moves = Obs.Perf.get Obs.Perf.global Obs.Perf.sa_moves in
  let mps = float_of_int moves /. Float.max 1e-9 fp_s in
  let floor = 3.0 *. pre_incremental_c5_moves_per_s in
  printf
    "  c5: %d moves; floorplan %.2fs; %.0f moves/s (%.1fx the pre-incremental \
     %.0f; gate 3x%s)@."
    moves fp_s mps
    (mps /. pre_incremental_c5_moves_per_s)
    pre_incremental_c5_moves_per_s
    (if mps >= 5.0 *. pre_incremental_c5_moves_per_s then ", stretch 5x met" else "");
  if mps < floor then
    failwith
      (Printf.sprintf
         "c5 single-thread floorplan throughput %.0f moves/s is below the 3x gate \
          (%.0f)"
         mps floor);
  [ Qor.Speed.entry ~circuit:"c5-fp-incremental" ~wall_s:fp_s ~sa_moves:moves () ]

(* ------------------------------------------------------------------ *)
(* Bechamel timing microbenches                                        *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () =
  printf "%s@." (T.section "Timing microbenches (Bechamel, ns/run)");
  let open Bechamel in
  let flat = Flat.elaborate (Circuitgen.Suite.fig1_design ()) in
  let tree = Hier.Tree.build flat in
  let gseq = Seqgraph.build flat in
  let config = Hidap.Config.default in
  let die = Hidap.die_for flat ~config in
  let rng = Util.Rng.create 42 in
  let sgamma = Hidap.Shape_curves.generate tree ~config ~rng in
  let ports = Hidap.Port_plan.make gseq ~die in
  let decluster () =
    Hier.Decluster.run tree ~nh:(Hier.Tree.root tree) ~open_frac:0.4 ~min_frac:0.01
  in
  let tests =
    Test.make_grouped ~name:"hidap"
      [ Test.make ~name:"T1:gseq_build" (Staged.stage (fun () -> Seqgraph.build flat));
        Test.make ~name:"F5:decluster" (Staged.stage decluster);
        Test.make ~name:"F6:target_area"
          (Staged.stage (fun () ->
               let dc = decluster () in
               Hidap.Target_area.assign tree ~sgamma ~hcb:dc.Hier.Decluster.hcb
                 ~hcg:dc.Hier.Decluster.hcg));
        Test.make ~name:"F7:dataflow_gdf"
          (Staged.stage (fun () ->
               let dc = decluster () in
               let hcb = Array.of_list dc.Hier.Decluster.hcb in
               let block_of_ht = Hashtbl.create 8 in
               Array.iteri (fun i ht -> Hashtbl.replace block_of_ht ht i) hcb;
               let block_of_node gid =
                 match gseq.Seqgraph.nodes.(gid).Seqgraph.kind with
                 | Seqgraph.Port _ -> -1
                 | Seqgraph.Macro fid | Seqgraph.Register (fid :: _) ->
                   let rec up ht =
                     if ht < 0 then -1
                     else
                       match Hashtbl.find_opt block_of_ht ht with
                       | Some b -> b
                       | None -> up (Hier.Tree.node tree ht).Hier.Tree.parent
                   in
                   up (Hier.Tree.ht_node_of_flat tree fid)
                 | Seqgraph.Register [] -> -1
               in
               Dataflow.Gdf.build gseq ~n_blocks:(Array.length hcb) ~block_of_node
                 ~fixed:[||]));
        Test.make ~name:"F8:polish_perturb"
          (let e = ref (Slicing.Polish.initial ~n:12) in
           Staged.stage (fun () -> e := Slicing.Polish.perturb rng !e));
        Test.make ~name:"F9:cellplace_sweep"
          (Staged.stage (fun () ->
               Cellplace.run
                 ~params:
                   { Cellplace.iterations = 1; spread_grid = 8; smooth_iterations = 0 }
                 ~flat ~macros:[]
                 ~port_pos:(fun fid -> Hidap.Port_plan.flat_pos ports fid)
                 ~die ())) ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ x ] -> Printf.sprintf "%.0f" x
        | Some _ | None -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  printf "%s@." (T.render ~header:[ "bench"; "ns/run" ] rows)

(* ------------------------------------------------------------------ *)
(* Serve: daemon throughput under concurrent clients and workers       *)
(* ------------------------------------------------------------------ *)

(* Real `hidap serve` daemon subprocesses (the forked-worker engine
   cannot run inside this binary, which creates domains), each loaded
   by N client domains bursting fig1-size jobs before collecting
   results, so the bounded queue actually overflows: backpressure
   rejections (clients re-submit after a short sleep) and the
   admission bound are part of the measurement, not an error path.
   The same burst runs at --workers 1 and --workers 2; the speedup is
   the payoff of the process pool. *)

let serve_cli () =
  let p =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "hidap_cli.exe")
  in
  if not (Sys.file_exists p) then
    failwith ("serve bench: hidap_cli.exe not built (run dune build): " ^ p);
  p

let serve_start_daemon ~dir ~workers ~queue_limit =
  let cli = serve_cli () in
  let sock = Filename.concat dir "s.sock" in
  let log = Filename.concat dir "serve.log" in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "--state-dir";
         Filename.concat dir "state"; "--workers"; string_of_int workers;
         "--queue-limit"; string_of_int queue_limit |]
      Unix.stdin logfd logfd
  in
  Unix.close logfd;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec poll () =
    match Serve.Client.connect ~socket_path:sock with
    | cl ->
      let up = Serve.Client.ping cl = Ok () in
      Serve.Client.close cl;
      if not up then begin
        Unix.sleepf 0.02;
        poll ()
      end
    | exception Unix.Unix_error _ ->
      if Unix.gettimeofday () > deadline then
        failwith "serve bench: daemon never came up";
      Unix.sleepf 0.02;
      poll ()
  in
  poll ();
  (pid, sock)

let serve_stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "serve bench: daemon drain did not exit 0"

(* One burst: [clients] domains each submit [per_client] fig1 jobs as
   fast as the admission bound lets them, then wait for all results.
   Returns (wall seconds, daemon stats, client re-submit count). *)
let serve_burst ~workers ~clients ~per_client ~queue_limit =
  let dir = Filename.temp_file "hidap-bench-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let pid, sock = serve_start_daemon ~dir ~workers ~queue_limit in
  let hnl = Hnl.Printer.to_string (Circuitgen.Suite.fig1_design ()) in
  let resubmits = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let t0 = Obs.Clock.now_s () in
  let client_doms =
    List.init clients (fun ci ->
        Domain.spawn (fun () ->
            let cl = Serve.Client.connect ~socket_path:sock in
            let rec submit spec =
              match Serve.Client.submit cl spec with
              | Ok (`Accepted (id, _)) -> Some id
              | Ok (`Rejected _) ->
                Atomic.incr resubmits;
                Unix.sleepf 0.05;
                submit spec
              | Error _ -> None
            in
            let ids =
              List.filter_map
                (fun i ->
                  submit
                    { Serve.Proto.default_submit with
                      Serve.Proto.hnl = Some hnl;
                      seed = (ci * 100) + i;
                      label = Printf.sprintf "bench-%d-%d" ci i })
                (List.init per_client (fun i -> i + 1))
            in
            List.iter
              (fun id ->
                match Serve.Client.wait ~timeout_s:600.0 cl id with
                | Ok v when v.Serve.Proto.state = Serve.Proto.Done ->
                  Atomic.incr completed
                | _ -> ())
              ids;
            Serve.Client.close cl))
  in
  List.iter Domain.join client_doms;
  let wall_s = Obs.Clock.now_s () -. t0 in
  let cl = Serve.Client.connect ~socket_path:sock in
  let stats =
    match Serve.Client.stats cl with
    | Ok s -> s
    | Error e ->
      failwith ("serve bench: stats failed: " ^ Serve.Client.error_message e)
  in
  Serve.Client.close cl;
  serve_stop_daemon pid;
  if Atomic.get completed < clients * per_client then
    failwith "serve bench: not every submitted job completed";
  (wall_s, stats, Atomic.get resubmits)

let serve_bench () =
  printf "%s@." (T.section "Serve: job daemon under concurrent clients");
  let clients = 4 in
  let per_client = if fast_mode then 2 else 4 in
  let queue_limit = 8 in
  let total = clients * per_client in
  let run workers =
    let wall_s, stats, resubmits =
      serve_burst ~workers ~clients ~per_client ~queue_limit
    in
    let jobs_per_min = float stats.Serve.Proto.completed /. wall_s *. 60.0 in
    (wall_s, jobs_per_min, stats, resubmits)
  in
  let w1_wall, w1_jpm, w1_stats, w1_resub = run 1 in
  let w2_wall, w2_jpm, w2_stats, w2_resub = run 2 in
  let speedup = w2_jpm /. w1_jpm in
  let cores = Domain.recommended_domain_count () in
  printf "%s@."
    (T.render
       ~header:
         [ "workers"; "clients"; "jobs"; "wall(s)"; "jobs/min"; "rejected";
           "resubmits" ]
       [ [ "1"; string_of_int clients; string_of_int total; T.fmt_f 2 w1_wall;
           T.fmt_f 1 w1_jpm;
           string_of_int w1_stats.Serve.Proto.rejected_backpressure;
           string_of_int w1_resub ];
         [ "2"; string_of_int clients; string_of_int total; T.fmt_f 2 w2_wall;
           T.fmt_f 1 w2_jpm;
           string_of_int w2_stats.Serve.Proto.rejected_backpressure;
           string_of_int w2_resub ] ]);
  printf "worker-pool speedup: %.2fx (2 workers over 1) on %d fig1 jobs, %d core%s@."
    speedup total cores (if cores = 1 then "" else "s");
  (* Two placement workers need their own core each, plus headroom for the
     daemon and the client burst, before the speedup is a property of the
     pool rather than of the box.  Gate only where the hardware can express
     it; on smaller machines the numbers are report-only. *)
  if cores >= 4 && speedup < 1.8 then
    failwith
      (Printf.sprintf
         "serve bench: 2-worker speedup %.2fx below 1.8x floor on %d cores"
         speedup cores)
  else if cores < 4 then
    printf "note: %d core(s) available; 2-worker speedup is core-bound and \
            report-only here (gated at >=1.8x on 4+ cores)@."
      cores;
  [ ("clients", Obs.Jsonx.Int clients);
    ("cores", Obs.Jsonx.Int cores);
    ("jobs", Obs.Jsonx.Int total);
    ("queue_limit", Obs.Jsonx.Int queue_limit);
    ("wall_s_workers1", Obs.Jsonx.Float w1_wall);
    ("wall_s_workers2", Obs.Jsonx.Float w2_wall);
    ("jobs_per_min_workers1", Obs.Jsonx.Float w1_jpm);
    ("jobs_per_min_workers2", Obs.Jsonx.Float w2_jpm);
    ("worker_speedup", Obs.Jsonx.Float speedup);
    ("rejected_backpressure",
     Obs.Jsonx.Int
       (w1_stats.Serve.Proto.rejected_backpressure
       + w2_stats.Serve.Proto.rejected_backpressure));
    ("retried",
     Obs.Jsonx.Int (w1_stats.Serve.Proto.retried + w2_stats.Serve.Proto.retried))
  ]

(* ------------------------------------------------------------------ *)
(* Suite-level QoR summary: one JSON per bench run at the repo root so *)
(* the perf trajectory accumulates across commits (BENCH_<date>.json). *)
(* ------------------------------------------------------------------ *)

let suite_summary results ~speed ~overhead_pct ~attribution_pct ~serve ~elapsed_s =
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
        ("version", J.Int 1);
        ("date", J.String date);
        ("fast_mode", J.Bool fast_mode);
        ("total_bench_s", J.Float elapsed_s);
        ( "wl_geo_norm",
          J.Obj
            (List.map
               (fun kind -> (Evalflow.flow_name kind, J.Float (geo kind)))
               [ Evalflow.IndEDA; Evalflow.HiDaP; Evalflow.HandFP ]) );
        ( "speed",
          J.Obj
            [ ("counter_overhead_pct", J.Float overhead_pct);
              ("attribution_overhead_pct", J.Float attribution_pct);
              ( "circuits",
                J.Obj
                  (List.map
                     (fun (e : Qor.Speed.entry) ->
                       ( e.Qor.Speed.circuit,
                         J.Obj
                           [ ("wall_s", J.Float e.Qor.Speed.wall_s);
                             ("sa_moves", J.Int e.Qor.Speed.sa_moves);
                             ("moves_per_s", J.Float e.Qor.Speed.moves_per_s);
                             ("peak_rss_kb", J.Int e.Qor.Speed.peak_rss_kb);
                             ("major_words", J.Float e.Qor.Speed.major_words) ] ))
                     speed) ) ] );
        ("serve", J.Obj serve);
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
  let results, speed = tables_2_3 () in
  fig1 ();
  figs_2_3 ();
  fig4 ();
  figs_5_6 ();
  fig7 ();
  fig8 ();
  fig9 results;
  ablations ();
  observability ();
  let overhead_pct = overhead_check () in
  let attribution_pct = attribution_check () in
  parallel_speedup ();
  let speed = speed @ throughput_gate () in
  speed_table speed;
  let serve = serve_bench () in
  bechamel_benches ();
  let elapsed_s = Obs.Clock.now_s () -. t0 in
  suite_summary results ~speed ~overhead_pct ~attribution_pct ~serve ~elapsed_s;
  printf "@.total bench time: %.1fs@." elapsed_s
