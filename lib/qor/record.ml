module Jsonx = Obs.Jsonx
module Rect = Geom.Rect
module Point = Geom.Point

let schema = "hidap-qor"

(* v3 adds the optional cost_breakdown section (exact cost-term
   attribution); v1/v2 records read back with [cost_breakdown = None]. *)
let version = 3

type ckpt_info = Ckpt.Session.summary = {
  resumed_from : string option;
  snapshots_written : int;
  instances_reused : int;
}

type stage = {
  stage_name : string;
  total_us : float;
  calls : int;
}

type macro = {
  macro_name : string;
  macro_rect : Rect.t;
  orient : Geom.Orientation.t;
}

type level = {
  depth : int;
  ht_id : int;
  level_rect : Rect.t;
  level_macros : int;
}

type qmetrics = {
  wl_um : float;
  grc_pct : float;
  wns_pct : float;
  tns : float;
  runtime_s : float;
  dataflow_cost : float;
}

type pool_worker = {
  pw_tasks : int;
  pw_steals : int;
  pw_busy_us : float;
}

type perf_info = {
  perf_counters : (string * int) list;
  perf_moves_per_s : float;
  perf_wall_s : float;
  pool_workers : pool_worker list;
  pool_wall_us : float;
  pool_maps : int;
  profile : (string * int) list;  (* collapsed stacks *)
}

type pair_contrib = {
  pair_a : string;
  pair_b : string;
  pair_weight : float;
  pair_wl : float;  (* weight * manhattan distance *)
}

type block_contrib = {
  bc_name : string;
  bc_wl : float;  (* sum of pair_wl over incident affinity pairs *)
  bc_at_shift : float;
  bc_am_deficit : float;
  bc_macro_deficit : float;
}

type cost_breakdown = {
  cb_total : float;
  cb_terms : (string * float) list;
      (* Layout_gen.term_names order; ordered left-to-right sum
         reproduces cb_total bit for bit *)
  cb_pairs : pair_contrib list;  (* affinity-loop order, not sorted *)
  cb_blocks : block_contrib list;
  cb_term_curves : (string * (float * float) list) list;
      (* per-term best-cost trajectories: (total_moves, term value) *)
}

type t = {
  rec_version : int;
  circuit : string;
  flow : string;
  seed : int;
  lambda : float option;
  cells : int;
  macro_count : int;
  qm : qmetrics;
  displacement : (string * float) list;
  sa_moves : int;
  sa_curve : (float * float) list;
  stages : stage list;
  gc : Obs.Gcstats.snapshot option;
  die : Rect.t;
  macros : macro list;
  levels : level list;
  degradations : Guard.Supervisor.entry list;
  ckpt : ckpt_info option;
  perf : perf_info option;
  cost_breakdown : cost_breakdown option;
}

(* ---- derived quantities ------------------------------------------- *)

(* Affinity-weighted distance between top-level Gdf blocks: the
   objective the dataflow blend is pulling on, reported so runs can be
   compared on dataflow quality and not only on wirelength. *)
let dataflow_cost_of_top (top : Hidap.Floorplan.instance_snapshot option) =
  match top with
  | None -> 0.0
  | Some top ->
    let n = Array.length top.Hidap.Floorplan.inst_rects in
    let centers = Array.map Rect.center top.Hidap.Floorplan.inst_rects in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a = top.Hidap.Floorplan.inst_affinity.(i).(j) in
        if a > 0.0 then total := !total +. (a *. Point.euclidean centers.(i) centers.(j))
      done
    done;
    !total

let term_curves_of reg =
  List.filter_map
    (fun t ->
      match Obs.Perf.series_points reg (Printf.sprintf "sa.term.%s.level0" t) with
      | [] -> None
      | pts -> Some (t, pts))
    Hidap.Layout_gen.term_names

(* The exact-attribution section, from the top-level instance snapshot.
   None when the top instance was replayed from a checkpoint (no layout
   was re-evaluated) or the run predates attribution. *)
let cost_breakdown_of_top registry (top : Hidap.Floorplan.instance_snapshot option) =
  match top with
  | None -> None
  | Some top ->
    (match
       ( top.Hidap.Floorplan.inst_cost,
         top.Hidap.Floorplan.inst_breakdown,
         top.Hidap.Floorplan.inst_attribution )
     with
    | Some cost, Some bd, Some attr ->
      let blocks = top.Hidap.Floorplan.inst_blocks in
      let fixed = top.Hidap.Floorplan.inst_fixed_names in
      let n_blocks = Array.length blocks in
      let endpoint i =
        if i < n_blocks then blocks.(i).Hidap.Block.name
        else if i - n_blocks < Array.length fixed then fixed.(i - n_blocks)
        else "fixed"
      in
      let pairs =
        Array.to_list
          (Array.map
             (fun (p : Hidap.Layout_gen.pair_contrib) ->
               { pair_a = endpoint p.Hidap.Layout_gen.pc_i;
                 pair_b = endpoint p.Hidap.Layout_gen.pc_j;
                 pair_weight = p.Hidap.Layout_gen.pc_weight;
                 pair_wl = p.Hidap.Layout_gen.pc_wl })
             attr.Hidap.Layout_gen.attr_pairs)
      in
      let wl_of = Array.make (max 1 n_blocks) 0.0 in
      Array.iter
        (fun (p : Hidap.Layout_gen.pair_contrib) ->
          let add i =
            if i >= 0 && i < n_blocks then wl_of.(i) <- wl_of.(i) +. p.Hidap.Layout_gen.pc_wl
          in
          add p.Hidap.Layout_gen.pc_i;
          add p.Hidap.Layout_gen.pc_j)
        attr.Hidap.Layout_gen.attr_pairs;
      let viols = attr.Hidap.Layout_gen.attr_leaf_viol in
      let cb_blocks =
        List.init n_blocks (fun i ->
            let v =
              if i < Array.length viols then viols.(i)
              else
                { Slicing.Layout.at_shift = 0.0; am_deficit = 0.0; macro_deficit = 0.0 }
            in
            { bc_name = blocks.(i).Hidap.Block.name;
              bc_wl = wl_of.(i);
              bc_at_shift = v.Slicing.Layout.at_shift;
              bc_am_deficit = v.Slicing.Layout.am_deficit;
              bc_macro_deficit = v.Slicing.Layout.macro_deficit })
      in
      Some
        { cb_total = cost;
          cb_terms = Hidap.Layout_gen.breakdown_terms bd;
          cb_pairs = pairs;
          cb_blocks;
          cb_term_curves = term_curves_of registry }
    | _ -> None)

let stages_of spans =
  match spans with
  | None -> []
  | Some spans ->
    List.map
      (fun (stage_name, total_us, calls) -> { stage_name; total_us; calls })
      (Obs.Trace.stage_totals spans)

(* The gauges are published by the flow itself (Hidap.place_design);
   None when the run was not instrumented. *)
let gc_of reg =
  match Obs.Perf.gauge_value reg "gc.minor_words" with
  | None -> None
  | Some minor_words ->
    let g name = Option.value ~default:0.0 (Obs.Perf.gauge_value reg name) in
    Some
      { Obs.Gcstats.minor_words;
        promoted_words = g "gc.promoted_words";
        major_words = g "gc.major_words";
        minor_collections = int_of_float (g "gc.minor_collections");
        major_collections = int_of_float (g "gc.major_collections");
        compactions = int_of_float (g "gc.compactions");
        heap_words = int_of_float (g "gc.heap_words");
        top_heap_words = int_of_float (g "gc.top_heap_words") }

(* ---- constructors ------------------------------------------------- *)

let of_run ~circuit ~flat ~(config : Hidap.Config.t) ?spans ?(displacement = []) ?ckpt ?perf
    (run : Evalflow.run) =
  let m = run.Evalflow.metrics and registry = run.Evalflow.registry in
  { rec_version = version;
    circuit;
    flow = Evalflow.flow_name run.Evalflow.kind;
    seed = config.Hidap.Config.seed;
    lambda = run.Evalflow.lambda_used;
    cells = Netlist.Flat.cell_count flat;
    macro_count = Netlist.Flat.macro_count flat;
    qm =
      { wl_um = m.Evalflow.wl_um;
        grc_pct = m.Evalflow.grc_pct;
        wns_pct = m.Evalflow.wns_pct;
        tns = m.Evalflow.tns;
        runtime_s = m.Evalflow.runtime_s;
        dataflow_cost = dataflow_cost_of_top run.Evalflow.top };
    displacement;
    sa_moves = run.Evalflow.sa_moves;
    sa_curve = Obs.Perf.series_points registry "sa.curve.level0";
    stages = stages_of spans;
    gc = gc_of registry;
    die = Hidap.die_for flat ~config;
    macros =
      List.map
        (fun (p : Cellplace.macro_place) ->
          { macro_name = flat.Netlist.Flat.nodes.(p.Cellplace.fid).Netlist.Flat.path;
            macro_rect = p.Cellplace.rect;
            orient = p.Cellplace.orient })
        run.Evalflow.macros;
    levels =
      List.map
        (fun (l : Hidap.Floorplan.level_info) ->
          { depth = l.Hidap.Floorplan.depth;
            ht_id = l.Hidap.Floorplan.ht_id;
            level_rect = l.Hidap.Floorplan.rect;
            level_macros = l.Hidap.Floorplan.macro_count })
        run.Evalflow.levels;
    degradations = run.Evalflow.degradations;
    ckpt;
    perf;
    cost_breakdown = cost_breakdown_of_top registry run.Evalflow.top }

(* ---- JSON ---------------------------------------------------------- *)

let rect_json (r : Rect.t) =
  Jsonx.List
    [ Jsonx.Float r.Rect.x; Jsonx.Float r.Rect.y; Jsonx.Float r.Rect.w;
      Jsonx.Float r.Rect.h ]

let points_json pts =
  Jsonx.List (List.map (fun (x, y) -> Jsonx.List [ Jsonx.Float x; Jsonx.Float y ]) pts)

let perf_info_json p =
  Jsonx.Obj
    [ ( "counters",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Int v)) p.perf_counters) );
      ("moves_per_s", Jsonx.Float p.perf_moves_per_s);
      ("wall_s", Jsonx.Float p.perf_wall_s);
      ( "pool",
        Jsonx.Obj
          [ ( "workers",
              Jsonx.List
                (List.map
                   (fun w ->
                     Jsonx.Obj
                       [ ("tasks", Jsonx.Int w.pw_tasks);
                         ("steals", Jsonx.Int w.pw_steals);
                         ("busy_us", Jsonx.Float w.pw_busy_us) ])
                   p.pool_workers) );
            ("wall_us", Jsonx.Float p.pool_wall_us);
            ("maps", Jsonx.Int p.pool_maps) ] );
      ( "profile",
        Jsonx.List
          (List.map
             (fun (stack, n) -> Jsonx.List [ Jsonx.String stack; Jsonx.Int n ])
             p.profile) ) ]

let to_json t =
  Jsonx.Obj
    [ ("schema", Jsonx.String schema);
      ("version", Jsonx.Int t.rec_version);
      ("circuit", Jsonx.String t.circuit);
      ("flow", Jsonx.String t.flow);
      ("seed", Jsonx.Int t.seed);
      ("lambda", (match t.lambda with Some l -> Jsonx.Float l | None -> Jsonx.Null));
      ("cells", Jsonx.Int t.cells);
      ("macro_count", Jsonx.Int t.macro_count);
      ( "metrics",
        Jsonx.Obj
          [ ("wl_um", Jsonx.Float t.qm.wl_um);
            ("wl_m", Jsonx.Float (t.qm.wl_um *. 1e-6));
            ("grc_pct", Jsonx.Float t.qm.grc_pct);
            ("wns_pct", Jsonx.Float t.qm.wns_pct);
            ("tns", Jsonx.Float t.qm.tns);
            ("runtime_s", Jsonx.Float t.qm.runtime_s);
            ("dataflow_cost", Jsonx.Float t.qm.dataflow_cost) ] );
      ( "displacement",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) t.displacement) );
      ( "sa",
        Jsonx.Obj
          [ ("moves", Jsonx.Int t.sa_moves); ("curve", points_json t.sa_curve) ] );
      ( "stages",
        Jsonx.List
          (List.map
             (fun s ->
               Jsonx.Obj
                 [ ("name", Jsonx.String s.stage_name);
                   ("total_us", Jsonx.Float s.total_us);
                   ("calls", Jsonx.Int s.calls) ])
             t.stages) );
      ("gc", (match t.gc with Some g -> Obs.Gcstats.to_json g | None -> Jsonx.Null));
      ("die", rect_json t.die);
      ( "macros",
        Jsonx.List
          (List.map
             (fun m ->
               Jsonx.Obj
                 [ ("name", Jsonx.String m.macro_name);
                   ("rect", rect_json m.macro_rect);
                   ("orient", Jsonx.String (Geom.Orientation.to_string m.orient)) ])
             t.macros) );
      ( "levels",
        Jsonx.List
          (List.map
             (fun l ->
               Jsonx.Obj
                 [ ("depth", Jsonx.Int l.depth);
                   ("ht_id", Jsonx.Int l.ht_id);
                   ("rect", rect_json l.level_rect);
                   ("macro_count", Jsonx.Int l.level_macros) ])
             t.levels) );
      ( "degradations",
        Jsonx.List (List.map Guard.Supervisor.entry_to_json t.degradations) );
      ( "ckpt",
        match t.ckpt with
        | None -> Jsonx.Null
        | Some c ->
          Jsonx.Obj
            [ ( "resumed_from",
                match c.resumed_from with
                | Some f -> Jsonx.String f
                | None -> Jsonx.Null );
              ("snapshots_written", Jsonx.Int c.snapshots_written);
              ("instances_reused", Jsonx.Int c.instances_reused) ] );
      ( "perf",
        match t.perf with None -> Jsonx.Null | Some p -> perf_info_json p );
      ( "cost_breakdown",
        match t.cost_breakdown with
        | None -> Jsonx.Null
        | Some cb ->
          Jsonx.Obj
            [ ("total", Jsonx.Float cb.cb_total);
              ( "terms",
                (* ordered list, not an object: the left-to-right sum is
                   part of the contract (reproduces total bit for bit) *)
                Jsonx.List
                  (List.map
                     (fun (name, value) ->
                       Jsonx.Obj
                         [ ("name", Jsonx.String name); ("value", Jsonx.Float value) ])
                     cb.cb_terms) );
              ( "pairs",
                Jsonx.List
                  (List.map
                     (fun p ->
                       Jsonx.Obj
                         [ ("a", Jsonx.String p.pair_a);
                           ("b", Jsonx.String p.pair_b);
                           ("weight", Jsonx.Float p.pair_weight);
                           ("wl", Jsonx.Float p.pair_wl) ])
                     cb.cb_pairs) );
              ( "blocks",
                Jsonx.List
                  (List.map
                     (fun b ->
                       Jsonx.Obj
                         [ ("name", Jsonx.String b.bc_name);
                           ("wl", Jsonx.Float b.bc_wl);
                           ("at_shift", Jsonx.Float b.bc_at_shift);
                           ("am_deficit", Jsonx.Float b.bc_am_deficit);
                           ("macro_deficit", Jsonx.Float b.bc_macro_deficit) ])
                     cb.cb_blocks) );
              ( "term_curves",
                Jsonx.Obj
                  (List.map (fun (name, pts) -> (name, points_json pts)) cb.cb_term_curves)
              ) ] ) ]

(* ---- decoding ------------------------------------------------------ *)

open Jsonx.Syntax

let rect_of_json j =
  let* l = Jsonx.list Jsonx.float j in
  match l with
  | [ x; y; w; h ] -> Ok (Rect.make ~x ~y ~w ~h)
  | _ -> Error (Printf.sprintf "expected [x, y, w, h], got %d numbers" (List.length l))

let points_of_json = Jsonx.list (Jsonx.pair Jsonx.float Jsonx.float)

let qmetrics_of_json j =
  let metric name = Jsonx.field name Jsonx.float j in
  let* wl_um = metric "wl_um" in
  let* _ = Jsonx.field_opt "wl_m" Jsonx.float j (* derived from wl_um *) in
  let* grc_pct = metric "grc_pct" in
  let* wns_pct = metric "wns_pct" in
  let* tns = metric "tns" in
  let* runtime_s = metric "runtime_s" in
  let* dataflow_cost = metric "dataflow_cost" in
  Ok { wl_um; grc_pct; wns_pct; tns; runtime_s; dataflow_cost }

let sa_of_json j =
  let* moves = Jsonx.field_or "moves" ~default:0 Jsonx.int j in
  let* curve = Jsonx.field_or "curve" ~default:[] points_of_json j in
  Ok (moves, curve)

let stage_of_json j =
  let* stage_name = Jsonx.field "name" Jsonx.string j in
  let* total_us = Jsonx.field "total_us" Jsonx.float j in
  let* calls = Jsonx.field "calls" Jsonx.int j in
  Ok { stage_name; total_us; calls }

let macro_of_json j =
  let* macro_name = Jsonx.field "name" Jsonx.string j in
  let* macro_rect = Jsonx.field "rect" rect_of_json j in
  let* orient =
    Jsonx.field "orient" (Jsonx.enum "orientation" Geom.Orientation.of_string) j
  in
  Ok { macro_name; macro_rect; orient }

let level_of_json j =
  let* depth = Jsonx.field "depth" Jsonx.int j in
  let* ht_id = Jsonx.field "ht_id" Jsonx.int j in
  let* level_rect = Jsonx.field "rect" rect_of_json j in
  let* level_macros = Jsonx.field "macro_count" Jsonx.int j in
  Ok { depth; ht_id; level_rect; level_macros }

let degradation_of_json j =
  let* stage = Jsonx.field "stage" Jsonx.string j in
  let* reason = Jsonx.field "reason" Jsonx.string j in
  let* detail = Jsonx.field "detail" Jsonx.string j in
  let* count = Jsonx.field "count" Jsonx.int j in
  Ok { Guard.Supervisor.stage; reason; detail; count }

let ckpt_of_json j =
  let* resumed_from = Jsonx.field_opt "resumed_from" Jsonx.string j in
  let* snapshots_written = Jsonx.field "snapshots_written" Jsonx.int j in
  let* instances_reused = Jsonx.field "instances_reused" Jsonx.int j in
  Ok { resumed_from; snapshots_written; instances_reused }

let pool_worker_of_json j =
  let* pw_tasks = Jsonx.field "tasks" Jsonx.int j in
  let* pw_steals = Jsonx.field "steals" Jsonx.int j in
  let* pw_busy_us = Jsonx.field "busy_us" Jsonx.float j in
  Ok { pw_tasks; pw_steals; pw_busy_us }

let pool_of_json j =
  let* workers = Jsonx.field_or "workers" ~default:[] (Jsonx.list pool_worker_of_json) j in
  let* wall_us = Jsonx.field_or "wall_us" ~default:0.0 Jsonx.float j in
  let* maps = Jsonx.field_or "maps" ~default:0 Jsonx.int j in
  Ok (workers, wall_us, maps)

let perf_of_json j =
  let* perf_counters = Jsonx.field_or "counters" ~default:[] (Jsonx.assoc Jsonx.int) j in
  let* perf_moves_per_s = Jsonx.field_or "moves_per_s" ~default:0.0 Jsonx.float j in
  let* perf_wall_s = Jsonx.field_or "wall_s" ~default:0.0 Jsonx.float j in
  let* pool_workers, pool_wall_us, pool_maps =
    Jsonx.field_or "pool" ~default:([], 0.0, 0) pool_of_json j
  in
  let* profile =
    Jsonx.field_or "profile" ~default:[] (Jsonx.list (Jsonx.pair Jsonx.string Jsonx.int)) j
  in
  Ok
    { perf_counters; perf_moves_per_s; perf_wall_s; pool_workers; pool_wall_us; pool_maps;
      profile }

let term_of_json j =
  let* name = Jsonx.field "name" Jsonx.string j in
  let* value = Jsonx.field "value" Jsonx.float j in
  Ok (name, value)

let pair_contrib_of_json j =
  let* pair_a = Jsonx.field "a" Jsonx.string j in
  let* pair_b = Jsonx.field "b" Jsonx.string j in
  let* pair_weight = Jsonx.field "weight" Jsonx.float j in
  let* pair_wl = Jsonx.field "wl" Jsonx.float j in
  Ok { pair_a; pair_b; pair_weight; pair_wl }

let block_contrib_of_json j =
  let num name = Jsonx.field name Jsonx.float j in
  let* bc_name = Jsonx.field "name" Jsonx.string j in
  let* bc_wl = num "wl" in
  let* bc_at_shift = num "at_shift" in
  let* bc_am_deficit = num "am_deficit" in
  let* bc_macro_deficit = num "macro_deficit" in
  Ok { bc_name; bc_wl; bc_at_shift; bc_am_deficit; bc_macro_deficit }

let cost_breakdown_of_json j =
  let* cb_total = Jsonx.field "total" Jsonx.float j in
  let* cb_terms = Jsonx.field_or "terms" ~default:[] (Jsonx.list term_of_json) j in
  let* cb_pairs = Jsonx.field_or "pairs" ~default:[] (Jsonx.list pair_contrib_of_json) j in
  let* cb_blocks =
    Jsonx.field_or "blocks" ~default:[] (Jsonx.list block_contrib_of_json) j
  in
  let* cb_term_curves =
    Jsonx.field_or "term_curves" ~default:[] (Jsonx.assoc points_of_json) j
  in
  Ok { cb_total; cb_terms; cb_pairs; cb_blocks; cb_term_curves }

let of_json j =
  let* s = Jsonx.field "schema" Jsonx.string j in
  if s <> schema then Error (Printf.sprintf "not a %s record (schema %S)" schema s)
  else
    let* v = Jsonx.field "version" Jsonx.int j in
    if v > version then
      Error (Printf.sprintf "record version %d is newer than supported %d" v version)
    else
      let list name d = Jsonx.field_or name ~default:[] (Jsonx.list d) j in
      let* circuit = Jsonx.field "circuit" Jsonx.string j in
      let* flow = Jsonx.field "flow" Jsonx.string j in
      let* seed = Jsonx.field "seed" Jsonx.int j in
      let* lambda = Jsonx.field_opt "lambda" Jsonx.float j in
      let* cells = Jsonx.field "cells" Jsonx.int j in
      let* macro_count = Jsonx.field "macro_count" Jsonx.int j in
      let* qm = Jsonx.field "metrics" qmetrics_of_json j in
      let* displacement =
        Jsonx.field_or "displacement" ~default:[] (Jsonx.assoc Jsonx.float) j
      in
      let* sa_moves, sa_curve = Jsonx.field_or "sa" ~default:(0, []) sa_of_json j in
      let* stages = list "stages" stage_of_json in
      let* gc = Jsonx.field_opt "gc" Obs.Gcstats.of_json j in
      let* die = Jsonx.field "die" rect_of_json j in
      let* macros = list "macros" macro_of_json in
      let* levels = list "levels" level_of_json in
      let* degradations = list "degradations" degradation_of_json in
      let* ckpt = Jsonx.field_opt "ckpt" ckpt_of_json j in
      let* perf = Jsonx.field_opt "perf" perf_of_json j in
      let* cost_breakdown = Jsonx.field_opt "cost_breakdown" cost_breakdown_of_json j in
      Ok
        { rec_version = v; circuit; flow; seed; lambda; cells; macro_count; qm;
          displacement; sa_moves; sa_curve; stages; gc; die; macros; levels;
          degradations; ckpt; perf; cost_breakdown }

(* ---- ledger files -------------------------------------------------- *)

let ledger_schema = "hidap-qor-ledger"

let ledger_json records =
  Jsonx.Obj
    [ ("schema", Jsonx.String ledger_schema);
      ("version", Jsonx.Int version);
      ("records", Jsonx.List (List.map to_json records)) ]

let write_ledger path records = Jsonx.write_file path (ledger_json records)

let records_of_json j =
  let* s = Jsonx.field "schema" Jsonx.string j in
  if s = schema then Result.map (fun r -> [ r ]) (of_json j)
  else if s <> ledger_schema then Error "not a hidap-qor record or ledger"
  else
    let* v = Jsonx.field "version" Jsonx.int j in
    if v > version then
      Error (Printf.sprintf "ledger version %d is newer than supported %d" v version)
    else Jsonx.field "records" (Jsonx.list of_json) j

let load_ledger path =
  match Jsonx.parse_file path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok j ->
    (match records_of_json j with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok _ as ok -> ok)
