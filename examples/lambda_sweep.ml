(* The paper's Figs 2-3 scenario: four macro blocks A-D communicating
   through a standard-cell block X. Sweeping the dataflow blend
   parameter lambda shows why both flows matter:

   - lambda = 1 (block flow only): A-D hug X but their relative
     positions ignore the A -> B/C -> D macro dataflow;
   - lambda = 0 (macro flow only): the macros follow the dataflow but X
     can end up anywhere;
   - blended lambda places X between the blocks it serves AND orders the
     blocks along the dataflow (the paper's Fig 3c).

   Run with: dune exec examples/lambda_sweep.exe *)

let () =
  let flat = Netlist.Flat.elaborate (Circuitgen.Suite.fig2_system ()) in
  (* The tree, Gseq, shape curves and port plan do not depend on lambda:
     build them once and place the design at each lambda. *)
  let d = Hidap.prepare flat in
  let gseq = d.Hidap.gseq and ports = d.Hidap.ports and die = d.Hidap.die in
  let best = ref (infinity, 0.0) in
  List.iter
    (fun lambda ->
      let r = Hidap.place_design d ~lambda in
      let m, _ = Evalflow.measure ~flat ~gseq ~ports ~die ~macros:r.Hidap.placements in
      if m.Evalflow.wl_um < fst !best then best := (m.Evalflow.wl_um, lambda);
      Format.printf "lambda = %.2f -> wirelength %.0f um, WNS %.1f%%@." lambda
        m.Evalflow.wl_um m.Evalflow.wns_pct;
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
        print_string (Viz.Ascii.floorplan ~die ~rects ~width:40 ~height:14 ())
      | None -> ())
    [ 0.0; 0.2; 0.5; 0.8; 1.0 ];
  let wl, lambda = !best in
  Format.printf "best lambda %.2f (WL %.0f um) — the paper keeps the best of 3@." lambda wl
