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
  let area = Flat.total_cell_area flat /. config.Config.utilization in
  let aspect = config.Config.die_aspect in
  let h = sqrt (area /. aspect) in
  let w = aspect *. h in
  Rect.make ~x:0.0 ~y:0.0 ~w ~h

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

let place_body ~config ~die ?ckpt flat =
  let die = match die with Some d -> d | None -> die_for flat ~config in
  Obs.Span.attr_int "seed" config.Config.seed;
  Obs.Span.attr_float "lambda" config.Config.lambda;
  let rng = Util.Rng.create config.Config.seed in
  (* Progress-stream stage brackets reuse the span names, so a live
     consumer and a trace line up 1:1. Emission is write-only
     telemetry: no RNG, no effect on the flow. *)
  let stage = Obs.Stream.with_stage in
  let tree =
    stage "hier.tree_build" (fun () ->
        Obs.Span.with_ ~name:"hier.tree_build" (fun () -> Hier.Tree.build flat))
  in
  let gseq =
    stage "seqgraph.build" (fun () ->
        Obs.Span.with_ ~name:"seqgraph.build" (fun () ->
            Seqgraph.build ~bit_threshold:config.Config.bit_threshold flat))
  in
  let sgamma =
    stage "shape_curves.generate" (fun () ->
        Shape_curves.generate tree ~config ~rng:(Util.Rng.split rng))
  in
  let ports =
    stage "port_plan.make" (fun () ->
        Obs.Span.with_ ~name:"port_plan.make" (fun () -> Port_plan.make gseq ~die))
  in
  let fp =
    stage "floorplan.run" (fun () ->
        Floorplan.run ~tree ~gseq ~sgamma ~ports ~config ~rng:(Util.Rng.split rng)
          ?ckpt ~die ())
  in
  Option.iter (fun s -> Ckpt.Session.stage_done s "floorplan") ckpt;
  (* The flipping stage is replayed from the checkpoint when a resumed
     snapshot carries it; orientation search is deterministic, so the
     replay equals a recomputation — just free. *)
  let flip =
    match Option.bind ckpt Ckpt.Session.lookup_flip with
    | Some e ->
      { Flipping.orientations = e.Ckpt.State.orientations;
        gain = e.Ckpt.State.flip_gain }
    | None ->
      let flip =
        stage "flipping.run" (fun () ->
            Flipping.run ~tree ~gseq ~ports ~macros:fp.Floorplan.placed_macros
              ~ht_rects:fp.Floorplan.ht_rects ~die ~config)
      in
      Option.iter
        (fun s ->
          Ckpt.Session.flip_done s
            { Ckpt.State.orientations = flip.Flipping.orientations;
              flip_gain = flip.Flipping.gain })
        ckpt;
      flip
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
  Obs.Metrics.gauge "hidap.macros_placed" (float_of_int (List.length placements));
  Obs.Metrics.gauge "hidap.die_area" (Rect.area die);
  if Obs.Metrics.enabled () then Obs.Gcstats.gauges (Obs.Gcstats.snapshot ());
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
  Obs.Span.with_ ~name:"hidap.place" (fun () -> place_body ~config ~die ?ckpt flat)

type sweep = {
  best : result;
  best_objective : float;
  sweep_trace : (float * float) list;
}

let place_sweep ?(config = Config.default) ?die ~objective flat =
  Obs.Span.with_ ~name:"hidap.place_sweep" (fun () ->
      let lambdas =
        match config.Config.lambda_sweep with [] -> [ config.Config.lambda ] | l -> l
      in
      (* Lambda runs are independent; fan them across the pool. The
         results come back in sweep order and the reduction below keeps
         the first minimum, so the chosen run is the same for every job
         count. Nested pool use inside each run degrades to sequential
         execution on that worker. *)
      let pool = Parexec.create ~jobs:config.Config.jobs () in
      let runs =
        Array.to_list
          (Parexec.map pool
             (fun lambda ->
               let r = place ~config:{ config with Config.lambda } ?die flat in
               (r, objective r))
             (Array.of_list lambdas))
      in
      let sweep_trace = List.map (fun (r, o) -> (r.lambda, o)) runs in
      List.iter
        (fun (lambda, o) -> Obs.Metrics.series "hidap.sweep" ~x:lambda ~y:o)
        sweep_trace;
      match runs with
      | [] -> assert false
      | first :: rest ->
        let best, best_objective =
          List.fold_left
            (fun (br, bo) (r, o) -> if o < bo then (r, o) else (br, bo))
            first rest
        in
        Obs.Span.attr_float "best_lambda" best.lambda;
        { best; best_objective; sweep_trace })

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
