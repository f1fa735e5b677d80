module Config = Config
module Block = Block
module Port_plan = Port_plan
module Shape_curves = Shape_curves
module Target_area = Target_area
module Layout_gen = Layout_gen
module Floorplan = Floorplan
module Flipping = Flipping
module Legalize = Legalize
module Placement_io = Placement_io
module Rect = Geom.Rect
module Flat = Netlist.Flat

type macro_placement = Placement_io.macro_placement = {
  fid : int;
  rect : Rect.t;
  orient : Geom.Orientation.t;
}

type design = {
  flat : Flat.t;
  config : Config.t;
  die : Rect.t;
  tree : Hier.Tree.t;
  gseq : Seqgraph.t;
  sgamma : Shape_curves.t;
  ports : Port_plan.t;
  rng_state : int64;
}

type result = {
  die : Rect.t;
  placements : macro_placement list;
  levels : Floorplan.level_info list;
  top : Floorplan.instance_snapshot option;
  tree : Hier.Tree.t;
  gseq : Seqgraph.t;
  ports : Port_plan.t;
  ht_rects : (int, Rect.t) Hashtbl.t;
  lambda : float;
  sa_moves : int;
  flip_gain : float;
}

let die_for flat ~config =
  let longer side (n : Flat.node) =
    match n.Flat.kind with
    | Flat.Kmacro { Netlist.Design.mw; mh } ->
      let l = if mh > mw then mh else mw in
      if l > side then l else side
    | Flat.Kflop | Flat.Kcomb | Flat.Kport _ -> side
  in
  let side =
    Array.fold_left longer
      (sqrt (Flat.total_cell_area flat /. config.Config.utilization))
      flat.Flat.nodes
  in
  Rect.make ~x:0.0 ~y:0.0 ~w:side ~h:side

(* Degraded stages (fault fallbacks, budget cuts) can leave macros
   clamped below their library footprint or stacked on top of each
   other. Restore every macro's true oriented footprint around its
   current center, then push the rects apart until they are legal.
   Only reachable after a recorded degradation, so clean runs keep
   their bit-identical output. *)
let repair_placements ~die flat placements =
  let rects =
    Array.of_list
      (List.map
         (fun p ->
           match flat.Flat.nodes.(p.fid).Flat.kind with
           | Flat.Kmacro { Netlist.Design.mw; mh } ->
             let w, h = Geom.Orientation.apply_dims p.orient ~w:mw ~h:mh in
             let c = Rect.center p.rect in
             Rect.make
               ~x:(c.Geom.Point.x -. (w /. 2.0))
               ~y:(c.Geom.Point.y -. (h /. 2.0))
               ~w ~h
           | _ -> p.rect)
         placements)
  in
  let rects = Legalize.separate ~die ~iterations:512 rects in
  List.mapi (fun i p -> { p with rect = rects.(i) }) placements

(* Progress-stream stage brackets reuse the span names, so a live
   consumer and a trace line up 1:1. Emission is write-only telemetry:
   no RNG, no effect on the flow. *)
let stage = Obs.Stream.with_stage

let seqgraph ~config flat =
  stage "seqgraph.build" (fun () ->
      Obs.Span.with_ ~name:"seqgraph.build" (fun () ->
          Seqgraph.build ~bit_threshold:config.Config.bit_threshold flat))

let port_plan gseq ~die =
  stage "port_plan.make" (fun () ->
      Obs.Span.with_ ~name:"port_plan.make" (fun () -> Port_plan.make gseq ~die))

let prepare ?(config = Config.default) ?die ?gseq ?ports flat =
  let die = match die with Some d -> d | None -> die_for flat ~config in
  let rng = Util.Rng.create config.Config.seed in
  let tree =
    stage "hier.tree_build" (fun () ->
        Obs.Span.with_ ~name:"hier.tree_build" (fun () -> Hier.Tree.build flat))
  in
  let gseq = match gseq with Some g -> g | None -> seqgraph ~config flat in
  let sgamma =
    stage "shape_curves.generate" (fun () ->
        Shape_curves.generate tree ~config ~rng:(Util.Rng.split rng))
  in
  let ports = match ports with Some p -> p | None -> port_plan gseq ~die in
  { flat; config; die; tree; gseq; sgamma; ports; rng_state = Util.Rng.state rng }

let place_design ?ckpt d ~lambda =
  let { flat; die; tree; gseq; sgamma; ports; _ } = d in
  let config = { d.config with Config.lambda } in
  let fp =
    stage "floorplan.run" (fun () ->
        Floorplan.run ~tree ~gseq ~sgamma ~ports ~config
          ~rng:(Util.Rng.split (Util.Rng.of_state d.rng_state))
          ?ckpt ~die ())
  in
  Option.iter (fun s -> Ckpt.Session.stage_done s "floorplan") ckpt;
  (* Orientation search is deterministic and cheap, so a resumed run
     recomputes it rather than replaying it from the checkpoint. *)
  let flip =
    stage "flipping.run" (fun () ->
        Flipping.run ~tree ~gseq ~ports ~macros:fp.Floorplan.placed_macros
          ~ht_rects:fp.Floorplan.ht_rects ~die ~config)
  in
  Option.iter (fun s -> Ckpt.Session.stage_done s "flipping") ckpt;
  let orient_of = Hashtbl.create 64 in
  List.iter
    (fun (fid, o) -> Hashtbl.replace orient_of fid o)
    flip.Flipping.orientations;
  let placements =
    List.map
      (fun (fid, rect, base) ->
        let orient =
          match Hashtbl.find_opt orient_of fid with
          | Some o -> o
          | None -> base
        in
        { fid; rect; orient })
      fp.Floorplan.placed_macros
  in
  let placements =
    if Guard.Supervisor.degraded () then repair_placements ~die flat placements
    else placements
  in
  Obs.Perf.add Obs.Perf.hidap_places 1;
  Obs.Perf.gauge "hidap.macros_placed" (float_of_int (List.length placements));
  Obs.Perf.gauge "hidap.die_area" (Rect.area die);
  if Obs.Perf.enabled () then Obs.Gcstats.gauges (Obs.Gcstats.snapshot ());
  { die;
    placements;
    levels = fp.Floorplan.levels;
    top = fp.Floorplan.top;
    tree;
    gseq;
    ports;
    ht_rects = fp.Floorplan.ht_rects;
    lambda = config.Config.lambda;
    sa_moves = fp.Floorplan.sa_moves_total;
    flip_gain = flip.Flipping.gain }

let place ?(config = Config.default) ?die ?ckpt flat =
  Obs.Span.with_ ~name:"hidap.place" (fun () ->
      Obs.Span.attr_int "seed" config.Config.seed;
      Obs.Span.attr_float "lambda" config.Config.lambda;
      place_design ?ckpt (prepare ~config ?die flat) ~lambda:config.Config.lambda)

let overlap_area result =
  let rects = List.map (fun p -> p.rect) result.placements in
  let arr = Array.of_list rects in
  let total = ref 0.0 in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      total := !total +. Rect.intersection_area arr.(i) arr.(j)
    done
  done;
  !total

let placement_bbox_ok result =
  List.for_all
    (fun p -> Rect.contains_rect ~outer:result.die ~inner:p.rect)
    result.placements
