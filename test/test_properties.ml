(* Whole-flow property tests over randomized generated designs: for any
   circuit the generator can produce, the flow must stay total, legal and
   deterministic. Counts are kept small because each case runs real
   annealing. *)

module Flat = Netlist.Flat
module Rect = Geom.Rect

let qtest ~count name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* small random generator configurations *)
let params_arb =
  QCheck.(
    map
      (fun (seed, ss, ups, macros, bw) ->
        { Circuitgen.Gen.default with
          Circuitgen.Gen.seed;
          n_subsystems = ss;
          units_per_subsystem = ups;
          n_macros = macros;
          bus_width = bw;
          target_cells = 400 })
      (tup5 (int_range 1 1000) (int_range 1 3) (int_range 1 3) (int_range 1 12)
         (int_range 2 8)))

let fast_config =
  { Hidap.Config.default with
    Hidap.Config.layout_sa = Anneal.Sa.quick_params;
    (* 33 plateaus of 24: 792 moves *)
    curve_sa = { Anneal.Sa.quick_params with Anneal.Sa.min_temp = 0.005 } }

let flow_total_and_legal =
  qtest ~count:12 "HiDaP is total, complete and in-bounds on random designs" params_arb
    (fun p ->
      let flat = Flat.elaborate (Circuitgen.Gen.generate p) in
      let r = Hidap.place ~config:fast_config flat in
      List.length r.Hidap.placements = p.Circuitgen.Gen.n_macros
      && Hidap.placement_bbox_ok r)

let flow_overlap_bounded =
  qtest ~count:12 "macro overlap stays negligible" params_arb (fun p ->
      let flat = Flat.elaborate (Circuitgen.Gen.generate p) in
      let r = Hidap.place ~config:fast_config flat in
      let macro_area =
        List.fold_left
          (fun acc (pl : Hidap.macro_placement) -> acc +. Rect.area pl.Hidap.rect)
          0.0 r.Hidap.placements
      in
      Hidap.overlap_area r <= 0.02 *. macro_area +. 1e-6)

let flow_deterministic =
  qtest ~count:6 "same seed, same placement" params_arb (fun p ->
      let flat = Flat.elaborate (Circuitgen.Gen.generate p) in
      let sig_of (r : Hidap.result) =
        List.map (fun (pl : Hidap.macro_placement) -> (pl.Hidap.fid, pl.Hidap.rect)) r.Hidap.placements
      in
      sig_of (Hidap.place ~config:fast_config flat)
      = sig_of (Hidap.place ~config:fast_config flat))

let hnl_roundtrip_random =
  qtest ~count:12 "HNL round-trips every generated design" params_arb (fun p ->
      let d = Circuitgen.Gen.generate p in
      match Hnl.Parser.parse_string (Hnl.Printer.to_string d) with
      | Ok d2 -> d = d2
      | Error _ -> false)

let gseq_conserves_macros =
  qtest ~count:12 "Gseq keeps every macro regardless of threshold"
    QCheck.(pair params_arb (int_range 1 64))
    (fun (p, threshold) ->
      let flat = Flat.elaborate (Circuitgen.Gen.generate p) in
      let g = Seqgraph.build ~bit_threshold:threshold flat in
      List.length (Seqgraph.macro_nodes g) = p.Circuitgen.Gen.n_macros)

let decluster_covers_cells =
  qtest ~count:12 "declustering accounts for every cell" params_arb (fun p ->
      let flat = Flat.elaborate (Circuitgen.Gen.generate p) in
      let tree = Hier.Tree.build flat in
      let root = Hier.Tree.root tree in
      let dc = Hier.Decluster.run tree ~nh:root ~open_frac:0.4 ~min_frac:0.01 in
      let covered =
        List.fold_left
          (fun acc id -> acc + List.length (Hier.Tree.cells_below tree id))
          0
          (dc.Hier.Decluster.hcb @ dc.Hier.Decluster.hcg)
      in
      covered = Flat.cell_count flat)

(* One module holding one [w] x [h] macro. Cell area alone gives it a
   die side of sqrt (w h / 0.7), shorter than the macro whenever its
   aspect ratio is below 0.7 (8 x 4 gets 6.76). *)
let one_macro_design ~w ~h =
  let module D = Netlist.Design in
  let m = D.cell ~name:"m" ~kind:(D.make_macro ~w ~h) ~ins:[ "a" ] ~outs:[ "q" ] () in
  D.design ~top:"t" ~modules:[ D.module_def ~name:"t" ~cells:[ m ] () ]

let die_fits_every_macro =
  qtest ~count:30 "die_for's die fits every macro"
    QCheck.(pair params_arb (pair (float_range 1.0 64.0) (float_range 1.0 64.0)))
    (fun (p, (w, h)) ->
      List.for_all
        (fun d ->
          let flat = Flat.elaborate d in
          let die = Hidap.die_for flat ~config:Hidap.Config.default in
          let fits w h = w <= die.Rect.w && h <= die.Rect.h in
          List.for_all
            (fun (n : Flat.node) ->
              match n.Flat.kind with
              | Flat.Kmacro { Netlist.Design.mw; mh } -> fits mw mh || fits mh mw
              | Flat.Kflop | Flat.Kcomb | Flat.Kport _ -> true)
            (Flat.macros flat)
          && not
               (List.exists
                  (fun (g : Guard.Diag.t) -> g.Guard.Diag.code = "macro-exceeds-die")
                  (Guard.Validate.flat ~die flat)))
        [ Circuitgen.Gen.generate p; one_macro_design ~w ~h ])

let suite =
  [ ( "properties.flow",
      [ flow_total_and_legal; flow_overlap_bounded; flow_deterministic;
        hnl_roundtrip_random; gseq_conserves_macros; decluster_covers_cells;
        die_fits_every_macro ] ) ]
