module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point

type flow_kind = IndEDA | HiDaP

let flow_name = function IndEDA -> "IndEDA" | HiDaP -> "HiDaP"

let flows = [ IndEDA; HiDaP ]

type metrics = {
  wl_um : float;
  wl_m : float;
  grc_pct : float;
  wns_pct : float;
  tns : float;
  runtime_s : float;
}

type placed = {
  macros : Cellplace.macro_place list;
  gseq : Seqgraph.t;
  ports : Hidap.Port_plan.t;
  sa_moves : int;
  levels : Hidap.Floorplan.level_info list;
  top : Hidap.Floorplan.instance_snapshot option;
}

let hidap_placed (r : Hidap.result) : placed =
  { macros = r.placements; gseq = r.gseq; ports = r.ports; sa_moves = r.sa_moves;
    levels = r.levels; top = r.top }

type run = {
  kind : flow_kind;
  metrics : metrics;
  macros : Cellplace.macro_place list;
  placement : Cellplace.t;
  lambda_used : float option;
  sa_moves : int;
  levels : Hidap.Floorplan.level_info list;
  top : Hidap.Floorplan.instance_snapshot option;
  sweep_trace : (float * float) list;
  registry : Obs.Perf.t;
  degradations : Guard.Supervisor.entry list;
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
let gseq_positions ~gseq ~ports ~(cp : Cellplace.t) ~die =
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
  let pos = gseq_positions ~gseq ~ports ~cp ~die in
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

(* The one constructor of a run: [place] runs in a telemetry registry
   of its own, which keeps its SA curves apart from any other
   candidate's, then the placement is measured once. The registry is
   folded into the ambient one on every exit, a cancelled or failed
   [place] included, so the caller's telemetry still sees it all. *)
let judge kind ~flat ~die ~lambda place =
  let t0 = Obs.Clock.now_s () in
  let registry = Obs.Perf.create () in
  let (p : placed), (metrics, placement) =
    Fun.protect
      ~finally:(fun () -> Obs.Perf.merge_into (Obs.Perf.ambient ()) registry)
      (fun () ->
        Obs.Perf.with_ambient registry (fun () ->
            let p = place () in
            (p, measure ~flat ~gseq:p.gseq ~ports:p.ports ~die ~macros:p.macros)))
  in
  { kind;
    metrics = { metrics with runtime_s = Obs.Clock.now_s () -. t0 };
    macros = p.macros;
    placement;
    lambda_used = lambda;
    sa_moves = p.sa_moves;
    levels = p.levels;
    top = p.top;
    sweep_trace = [];
    registry;
    degradations = [] }

(* What each flow proposes: (λ, placer) pairs, in proposal order.
   IndEDA proposes one wall-packed placement; HiDaP prepares one design
   and proposes one placement of it per λ of the sweep. *)
let candidates kind ~(config : Hidap.Config.t) ~flat ~gseq ~ports ~die =
  match kind with
  | IndEDA ->
    [ ( None,
        fun () ->
          { macros = Baselines.Indeda.place ~flat ~gseq ~die (); gseq; ports; sa_moves = 0;
            levels = []; top = None } ) ]
  | HiDaP ->
    let d = Hidap.prepare ~config ~die ~gseq ~ports flat in
    List.map
      (fun lambda -> (Some lambda, fun () -> hidap_placed (Hidap.place_design d ~lambda)))
      (match config.lambda_sweep with [] -> [ config.lambda ] | l -> l)

(* The runner every flow shares: its candidates, each judged once,
   fanned across the pool. Results come back in proposal order and the
   fold keeps the first minimum, so the winner is the same for every
   job count. *)
let run_flow kind ?(config = Hidap.Config.default) ~flat ~gseq ~ports ~die () =
  Obs.Span.with_ ~name:"evalflow.flow" @@ fun () ->
  Obs.Span.attr_str "flow" (flow_name kind);
  let t0 = Obs.Clock.now_s () in
  let judge_one (lambda, place) =
    Obs.Span.with_ ~name:"evalflow.candidate" (fun () ->
        Option.iter (Obs.Span.attr_float "lambda") lambda;
        judge kind ~flat ~die ~lambda place)
  in
  let sweep proposed =
    Obs.Span.with_ ~name:"evalflow.sweep" @@ fun () ->
    let runs = Array.to_list (Parexec.map ~jobs:config.jobs judge_one (Array.of_list proposed)) in
    let wl r = r.metrics.wl_um in
    let trace = List.filter_map (fun r -> Option.map (fun l -> (l, wl r)) r.lambda_used) runs in
    List.iter (fun (lambda, wl) -> Obs.Perf.series "hidap.sweep" ~x:lambda ~y:wl) trace;
    let best = List.fold_left (fun b r -> if wl r < wl b then r else b) (List.hd runs) runs in
    Option.iter (Obs.Span.attr_float "best_lambda") best.lambda_used;
    (best, trace)
  in
  let (winner, sweep_trace), degradations =
    Guard.Supervisor.during (fun () -> sweep (candidates kind ~config ~flat ~gseq ~ports ~die))
  in
  let runtime_s = Obs.Clock.now_s () -. t0 in
  let name = flow_name kind in
  Obs.Perf.gauge (Printf.sprintf "evalflow.%s.wl_um" name) winner.metrics.wl_um;
  Obs.Perf.gauge (Printf.sprintf "evalflow.%s.runtime_s" name) runtime_s;
  if Obs.Perf.enabled () then
    Obs.Gcstats.record ~prefix:("gc." ^ name) Obs.Perf.global (Obs.Gcstats.snapshot ());
  { winner with metrics = { winner.metrics with runtime_s }; sweep_trace; degradations }

type circuit_result = {
  circuit : string;
  cells : int;
  macro_count : int;
  runs : run list;
}

let run_all ?(config = Hidap.Config.default) ~name flat =
  let gseq = Hidap.seqgraph ~config flat in
  let die = Hidap.die_for flat ~config in
  let ports = Hidap.port_plan gseq ~die in
  let runs = List.map (fun kind -> run_flow kind ~config ~flat ~gseq ~ports ~die ()) flows in
  { circuit = name;
    cells = Flat.cell_count flat;
    macro_count = Flat.macro_count flat;
    runs }

let best_known_wl result =
  List.fold_left (fun acc r -> Float.min acc r.metrics.wl_um) infinity result.runs

let normalized_wl result run = run.metrics.wl_um /. best_known_wl result

let run_of result kind = List.find (fun r -> r.kind = kind) result.runs

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
