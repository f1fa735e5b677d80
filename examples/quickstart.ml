(* Quickstart: build a small hierarchical design with the netlist API,
   run the full HiDaP flow on it and inspect the result.

   Run with: dune exec examples/quickstart.exe

   The design mirrors the paper's Fig. 1: two subsystems of 8 memory
   macros joined by a cells-only connector. HiDaP recovers that
   structure: the first declustering level has three blocks (8 macros /
   cells / 8 macros), and the recursion fixes all 16 macros. *)

module D = Netlist.Design

let () =
  (* 1. A hierarchical netlist with array information. The generator
     builds the same kind of design you would write by hand: units with
     macros behind register stages named stage0_0, stage0_1, ... *)
  let design = Circuitgen.Suite.fig1_design () in

  (* ...or write modules directly with the API: *)
  let tiny =
    D.design ~top:"tiny"
      ~modules:
        [ D.module_def ~name:"tiny"
            ~ports:[ D.port ~name:"clk_in" ~dir:D.Input ]
            ~cells:
              [ D.cell ~name:"ram0" ~kind:(D.make_macro ~w:30.0 ~h:20.0)
                  ~ins:[ "clk_in" ] ~outs:[ "q0" ] ();
                D.cell ~name:"r_0" ~kind:D.Flop ~ins:[ "q0" ] ~outs:[ "d0" ] () ]
            () ]
  in
  (match Guard.Validate.design tiny with
  | Ok _ -> print_endline "tiny design validates"
  | Error diags -> List.iter (Format.printf "%a@." Guard.Diag.pp) diags);

  (* 2. Elaborate to the flat netlist (Gnet) and look at it. *)
  let flat = Netlist.Flat.elaborate design in
  Format.printf "%a@." Netlist.Flat.pp_summary flat;

  (* 3. Run the placer: hierarchy tree -> shape curves -> recursive
     dataflow-driven floorplan -> flipping. *)
  let result = Hidap.place flat in
  Format.printf "placed %d macros in a %.0f x %.0f die (lambda=%.1f)@."
    (List.length result.Hidap.placements)
    result.Hidap.die.Geom.Rect.w result.Hidap.die.Geom.Rect.h result.Hidap.lambda;
  Format.printf "macro overlap: %.3f (0 = legal), all inside die: %b@."
    (Hidap.overlap_area result)
    (Hidap.placement_bbox_ok result);

  (* 4. Render the floorplan. *)
  let rects =
    List.map (fun (p : Hidap.macro_placement) -> ("M", p.Hidap.rect)) result.Hidap.placements
  in
  print_string (Viz.Ascii.floorplan ~die:result.Hidap.die ~rects ~width:56 ~height:24 ());

  (* 5. Each placement carries coordinates and orientation. *)
  List.iteri
    (fun i (p : Hidap.macro_placement) ->
      if i < 4 then
        Format.printf "  %s -> %a %s@."
          flat.Netlist.Flat.nodes.(p.Hidap.fid).Netlist.Flat.path Geom.Rect.pp p.Hidap.rect
          (Geom.Orientation.to_string p.Hidap.orient))
    result.Hidap.placements;
  Format.printf "  ... (%d more)@." (max 0 (List.length result.Hidap.placements - 4))
