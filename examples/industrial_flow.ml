(* Full industrial-style evaluation of one c-suite circuit: both flows
   (IndEDA proxy, HiDaP) through the shared measurement pipeline, WL
   normalised to the best known result (the lower of the two), plus the
   paper's Fig 9 artifacts (density maps as PPM images, the top-level Gdf
   diagram as SVG).

   Run with: dune exec examples/industrial_flow.exe [-- circuit]
   (default circuit: c1; c2..c8 are progressively larger). *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "c1" in
  let circuit =
    match Circuitgen.Suite.find name with
    | Some c -> c
    | None ->
      Format.eprintf "unknown circuit %s (use c1..c8)@." name;
      exit 1
  in
  let design = Circuitgen.Gen.generate circuit.Circuitgen.Suite.params in
  let flat = Netlist.Flat.elaborate design in
  Format.printf "%a@." Netlist.Flat.pp_summary flat;
  Format.printf "paper counterpart: %d cells, %d macros (cells scaled 1:100 here)@.@."
    circuit.Circuitgen.Suite.paper_cells circuit.Circuitgen.Suite.paper_macros;
  let res = Evalflow.run_all ~name flat in
  (* Fig 9-style artifacts *)
  let dir = "example_artifacts" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun (r : Evalflow.run) ->
      let m = r.Evalflow.metrics and flow = Evalflow.flow_name r.Evalflow.kind in
      Format.printf
        "%-7s WL %.3f m (norm %.3f)  GRC %.2f%%  WNS %.1f%%  TNS %.0f  runtime %.2f s@." flow
        m.Evalflow.wl_m (Evalflow.normalized_wl res r) m.Evalflow.grc_pct m.Evalflow.wns_pct
        m.Evalflow.tns m.Evalflow.runtime_s;
      let path = Filename.concat dir (Printf.sprintf "%s_density_%s.ppm" name flow) in
      Viz.Ppm.write_file path (Viz.Ppm.of_density (Evalflow.density_map r ~flat ~bins:24) ());
      Format.printf "wrote %s@." path)
    res.Evalflow.runs;
  let r = Hidap.place flat in
  (match r.Hidap.top with
  | Some top ->
    let blocks =
      Array.to_list
        (Array.mapi
           (fun i (b : Hidap.Block.t) ->
             (b.Hidap.Block.name, top.Hidap.Floorplan.inst_rects.(i), b.Hidap.Block.macro_count))
           top.Hidap.Floorplan.inst_blocks)
    in
    let svg =
      Viz.Svg.dataflow_diagram ~die:r.Hidap.die ~blocks
        ~affinity:top.Hidap.Floorplan.inst_affinity ()
    in
    let path = Filename.concat dir (Printf.sprintf "%s_gdf.svg" name) in
    Viz.Svg.write_file path svg;
    Format.printf "wrote %s (top-level dataflow diagram)@." path
  | None -> ());
  (* density ASCII for a quick look *)
  let hidap_run = Evalflow.run_of res Evalflow.HiDaP in
  Format.printf "@.HiDaP cell-density map:@.%s@."
    (Viz.Ascii.density (Evalflow.density_map hidap_run ~flat ~bins:24) ~width:48 ~height:18 ())
