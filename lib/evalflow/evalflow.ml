module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point

type flow_kind = IndEDA | HiDaP | HandFP

let flow_name = function IndEDA -> "IndEDA" | HiDaP -> "HiDaP" | HandFP -> "handFP"

type metrics = {
  wl_um : float;
  wl_m : float;
  grc_pct : float;
  wns_pct : float;
  tns : float;
  runtime_s : float;
}

type run = {
  kind : flow_kind;
  metrics : metrics;
  macros : Cellplace.macro_place list;
  placement : Cellplace.t;
  lambda_used : float option;
  sa_moves : int;
  sweep_trace : (float * float) list;
}

(* Total HPWL with macro pins resolved through the flipping pin model:
   every node's output and input pin positions are resolved once into
   flat arrays, then each net of the pin index is one bounding box over
   its drivers' output pins and its sinks' input pins. *)
let total_wirelength ~flat ~(cp : Cellplace.t) ~macros =
  let positions = cp.Cellplace.positions in
  let outx = Array.map (fun (p : Point.t) -> p.Point.x) positions in
  let outy = Array.map (fun (p : Point.t) -> p.Point.y) positions in
  let inx = Array.copy outx and iny = Array.copy outy in
  List.iter
    (fun (m : Cellplace.macro_place) ->
      let pin dir =
        Hidap.Flipping.pin_position ~rect:m.Cellplace.rect ~orient:m.Cellplace.orient ~dir
      in
      let o = pin `Out and i = pin `In in
      outx.(m.Cellplace.fid) <- o.Point.x;
      outy.(m.Cellplace.fid) <- o.Point.y;
      inx.(m.Cellplace.fid) <- i.Point.x;
      iny.(m.Cellplace.fid) <- i.Point.y)
    macros;
  let idx = flat.Flat.pin_index in
  let off = idx.Flat.off and ids = idx.Flat.ids in
  let acc = ref 0.0 in
  for k = 0 to Array.length off - 2 do
    let minx = ref infinity and maxx = ref neg_infinity in
    let miny = ref infinity and maxy = ref neg_infinity in
    let first_sink = idx.Flat.first_sink.(k) in
    for q = off.(k) to off.(k + 1) - 1 do
      let fid = ids.(q) in
      let x = if q < first_sink then outx.(fid) else inx.(fid) in
      let y = if q < first_sink then outy.(fid) else iny.(fid) in
      if x < !minx then minx := x;
      if x > !maxx then maxx := x;
      if y < !miny then miny := y;
      if y > !maxy then maxy := y
    done;
    acc := !acc +. (!maxx -. !minx +. (!maxy -. !miny))
  done;
  !acc

(* Gseq node positions for timing: macros at their pin centres, ports on
   the boundary, register arrays at the mean of their placed members. *)
let gseq_positions ~flat ~gseq ~ports ~(cp : Cellplace.t) ~die =
  ignore flat;
  let n = Seqgraph.node_count gseq in
  let pos = Array.make n (Rect.center die) in
  Array.iteri
    (fun gid (nd : Seqgraph.node) ->
      match nd.Seqgraph.kind with
      | Seqgraph.Macro fid -> pos.(gid) <- cp.Cellplace.positions.(fid)
      | Seqgraph.Port _ ->
        (match Hidap.Port_plan.gseq_pos ports gid with
        | Some p -> pos.(gid) <- p
        | None -> ())
      | Seqgraph.Register members ->
        (match members with
        | [] -> ()
        | _ ->
          let k = float_of_int (List.length members) in
          let sx = List.fold_left (fun a fid -> a +. (cp.Cellplace.positions.(fid)).Point.x) 0.0 members in
          let sy = List.fold_left (fun a fid -> a +. (cp.Cellplace.positions.(fid)).Point.y) 0.0 members in
          pos.(gid) <- Point.make (sx /. k) (sy /. k)))
    gseq.Seqgraph.nodes;
  pos

let measure_body ~flat ~gseq ~ports ~die ~macros =
  let cp =
    Cellplace.run ~flat ~macros
      ~port_pos:(fun fid -> Hidap.Port_plan.flat_pos ports fid)
      ~die ()
  in
  let wl_um = total_wirelength ~flat ~cp ~macros in
  let macro_rects = List.map (fun (m : Cellplace.macro_place) -> m.Cellplace.rect) macros in
  let cong =
    Congestion.estimate ~flat ~positions:cp.Cellplace.positions ~die ~macros:macro_rects ()
  in
  let pos = gseq_positions ~flat ~gseq ~ports ~cp ~die in
  let timing = Sta.analyze ~gseq ~node_pos:(fun gid -> pos.(gid)) ~die () in
  ( { wl_um;
      wl_m = wl_um *. 1e-6;
      grc_pct = cong.Congestion.overflow_pct;
      wns_pct = timing.Sta.wns_pct;
      tns = timing.Sta.tns;
      runtime_s = 0.0 },
    cp )

let measure ~flat ~gseq ~ports ~die ~macros =
  Obs.Span.with_ ~name:"evalflow.measure" (fun () ->
      measure_body ~flat ~gseq ~ports ~die ~macros)

let run_flow_body kind ~config ~flat ~gseq ~ports ~die =
  let t0 = Obs.Clock.now_s () in
  let macros, lambda_used, sa_moves, sweep_trace =
    match kind with
    | IndEDA ->
      (Baselines.Indeda.place ~flat ~gseq ~die (), None, 0, [])
    | HandFP ->
      (* The expert-oracle protocol: engineers iterate for weeks against
         the real metric. Modelled as a multi-start search judged by the
         measured wirelength: a flat annealing candidate plus
         differently-seeded multi-level sweeps. Seeds differ from the
         HiDaP flow's, so HiDaP can occasionally win (as in the paper's
         c3 and c8). *)
      let flat_sa = Baselines.Handfp.place ~flat ~gseq ~ports ~die () in
      let objective r =
        let m, _ = measure ~flat ~gseq ~ports ~die ~macros:r.Hidap.placements in
        m.wl_um
      in
      let reseeded offset =
        let config = { config with Hidap.Config.seed = config.Hidap.Config.seed + offset } in
        let sw = Hidap.place_sweep ~config ~die ~objective flat in
        (sw.Hidap.best.Hidap.placements, sw.Hidap.best_objective)
      in
      let candidates =
        (let m, _ = measure ~flat ~gseq ~ports ~die ~macros:flat_sa in
         (flat_sa, m.wl_um))
        :: List.map reseeded [ 11; 23 ]
      in
      let best =
        List.fold_left
          (fun (bm, bw) (m, w) -> if w < bw then (m, w) else (bm, bw))
          (List.hd candidates) (List.tl candidates)
      in
      (fst best, None, 0, [])
    | HiDaP ->
      let objective r =
        let m, _ = measure ~flat ~gseq ~ports ~die ~macros:r.Hidap.placements in
        m.wl_um
      in
      let sw = Hidap.place_sweep ~config ~die ~objective flat in
      ( sw.Hidap.best.Hidap.placements,
        Some sw.Hidap.best.Hidap.lambda,
        sw.Hidap.best.Hidap.sa_moves,
        sw.Hidap.sweep_trace )
  in
  let runtime_s = Obs.Clock.now_s () -. t0 in
  let metrics, cp = measure ~flat ~gseq ~ports ~die ~macros in
  Obs.Metrics.gauge
    (Printf.sprintf "evalflow.%s.wl_um" (flow_name kind))
    metrics.wl_um;
  Obs.Metrics.gauge
    (Printf.sprintf "evalflow.%s.runtime_s" (flow_name kind))
    runtime_s;
  if Obs.Metrics.enabled () then
    Obs.Gcstats.record
      ~prefix:(Printf.sprintf "gc.%s" (flow_name kind))
      Obs.Metrics.global (Obs.Gcstats.snapshot ());
  { kind;
    metrics = { metrics with runtime_s };
    macros;
    placement = cp;
    lambda_used;
    sa_moves;
    sweep_trace }

let run_flow kind ?(config = Hidap.Config.default) ~flat ~gseq ~ports ~die () =
  Obs.Span.with_ ~name:"evalflow.flow" (fun () ->
      Obs.Span.attr_str "flow" (flow_name kind);
      run_flow_body kind ~config ~flat ~gseq ~ports ~die)

type circuit_result = {
  circuit : string;
  cells : int;
  macro_count : int;
  runs : run list;
}

let run_all ?(config = Hidap.Config.default) ~name flat =
  let gseq = Seqgraph.build ~bit_threshold:config.Hidap.Config.bit_threshold flat in
  let die = Hidap.die_for flat ~config in
  let ports = Hidap.Port_plan.make gseq ~die in
  let runs =
    List.map
      (fun kind -> run_flow kind ~config ~flat ~gseq ~ports ~die ())
      [ IndEDA; HiDaP; HandFP ]
  in
  { circuit = name;
    cells = Flat.cell_count flat;
    macro_count = Flat.macro_count flat;
    runs }

let normalized_wl result kind =
  let wl k =
    match List.find_opt (fun r -> r.kind = k) result.runs with
    | Some r -> r.metrics.wl_um
    | None -> invalid_arg "normalized_wl: missing flow"
  in
  wl kind /. wl HandFP

let density_map run ~flat ~bins =
  Cellplace.density_map run.placement ~flat ~macros:run.macros ~bins

let macro_displacement a b =
  let centers ms =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (m : Cellplace.macro_place) ->
        Hashtbl.replace tbl m.Cellplace.fid (Rect.center m.Cellplace.rect))
      ms;
    tbl
  in
  let ca = centers a.macros and cb = centers b.macros in
  let total = ref 0.0 and n = ref 0 in
  Hashtbl.iter
    (fun fid pa ->
      match Hashtbl.find_opt cb fid with
      | Some pb ->
        total := !total +. Point.euclidean pa pb;
        incr n
      | None -> ())
    ca;
  if !n = 0 then 0.0 else !total /. float_of_int !n
