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
      match Obs.Metrics.series_points reg (Printf.sprintf "sa.term.%s.level0" t) with
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
  match Obs.Metrics.gauge_value reg "gc.minor_words" with
  | None -> None
  | Some minor_words ->
    let g name = Option.value ~default:0.0 (Obs.Metrics.gauge_value reg name) in
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
    sa_curve = Obs.Metrics.series_points registry "sa.curve.level0";
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

let rect_of_json = function
  | Jsonx.List [ x; y; w; h ] ->
    (match (Jsonx.to_float_opt x, Jsonx.to_float_opt y, Jsonx.to_float_opt w,
            Jsonx.to_float_opt h)
     with
    | Some x, Some y, Some w, Some h -> Some (Rect.make ~x ~y ~w ~h)
    | _ -> None)
  | _ -> None

let points_json pts =
  Jsonx.List (List.map (fun (x, y) -> Jsonx.List [ Jsonx.Float x; Jsonx.Float y ]) pts)

let points_of_json j =
  match Jsonx.to_list_opt j with
  | None -> None
  | Some items ->
    let pt = function
      | Jsonx.List [ x; y ] ->
        (match (Jsonx.to_float_opt x, Jsonx.to_float_opt y) with
        | Some x, Some y -> Some (x, y)
        | _ -> None)
      | _ -> None
    in
    let pts = List.filter_map pt items in
    if List.length pts = List.length items then Some pts else None

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

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field j name of_j =
  match Option.bind (Jsonx.member name j) of_j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" name)

let of_json j =
  let* s = field j "schema" Jsonx.to_string_opt in
  if s <> schema then Error (Printf.sprintf "not a %s record (schema %S)" schema s)
  else
    let* v = field j "version" Jsonx.to_int_opt in
    if v > version then
      Error (Printf.sprintf "record version %d is newer than supported %d" v version)
    else
      let* circuit = field j "circuit" Jsonx.to_string_opt in
      let* flow = field j "flow" Jsonx.to_string_opt in
      let* seed = field j "seed" Jsonx.to_int_opt in
      let lambda = Option.bind (Jsonx.member "lambda" j) Jsonx.to_float_opt in
      let* cells = field j "cells" Jsonx.to_int_opt in
      let* macro_count = field j "macro_count" Jsonx.to_int_opt in
      let* mj = field j "metrics" (fun x -> Some x) in
      let metric name = field mj name Jsonx.to_float_opt in
      let* wl_um = metric "wl_um" in
      let* grc_pct = metric "grc_pct" in
      let* wns_pct = metric "wns_pct" in
      let* tns = metric "tns" in
      let* runtime_s = metric "runtime_s" in
      let* dataflow_cost = metric "dataflow_cost" in
      let displacement =
        match Jsonx.member "displacement" j with
        | Some (Jsonx.Obj fields) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun f -> (k, f)) (Jsonx.to_float_opt v))
            fields
        | _ -> []
      in
      let sa_moves, sa_curve =
        match Jsonx.member "sa" j with
        | Some sa ->
          ( Option.value ~default:0 (Option.bind (Jsonx.member "moves" sa) Jsonx.to_int_opt),
            Option.value ~default:[]
              (Option.bind (Jsonx.member "curve" sa) points_of_json) )
        | None -> (0, [])
      in
      let stages =
        match Option.bind (Jsonx.member "stages" j) Jsonx.to_list_opt with
        | None -> []
        | Some items ->
          List.filter_map
            (fun s ->
              match
                ( Option.bind (Jsonx.member "name" s) Jsonx.to_string_opt,
                  Option.bind (Jsonx.member "total_us" s) Jsonx.to_float_opt,
                  Option.bind (Jsonx.member "calls" s) Jsonx.to_int_opt )
              with
              | Some stage_name, Some total_us, Some calls ->
                Some { stage_name; total_us; calls }
              | _ -> None)
            items
      in
      let gc = Option.bind (Jsonx.member "gc" j) Obs.Gcstats.of_json in
      let* die = field j "die" rect_of_json in
      let macros =
        match Option.bind (Jsonx.member "macros" j) Jsonx.to_list_opt with
        | None -> []
        | Some items ->
          List.filter_map
            (fun m ->
              match
                ( Option.bind (Jsonx.member "name" m) Jsonx.to_string_opt,
                  Option.bind (Jsonx.member "rect" m) rect_of_json,
                  Option.bind
                    (Option.bind (Jsonx.member "orient" m) Jsonx.to_string_opt)
                    Geom.Orientation.of_string )
              with
              | Some macro_name, Some macro_rect, Some orient ->
                Some { macro_name; macro_rect; orient }
              | _ -> None)
            items
      in
      let levels =
        match Option.bind (Jsonx.member "levels" j) Jsonx.to_list_opt with
        | None -> []
        | Some items ->
          List.filter_map
            (fun l ->
              match
                ( Option.bind (Jsonx.member "depth" l) Jsonx.to_int_opt,
                  Option.bind (Jsonx.member "ht_id" l) Jsonx.to_int_opt,
                  Option.bind (Jsonx.member "rect" l) rect_of_json,
                  Option.bind (Jsonx.member "macro_count" l) Jsonx.to_int_opt )
              with
              | Some depth, Some ht_id, Some level_rect, Some level_macros ->
                Some { depth; ht_id; level_rect; level_macros }
              | _ -> None)
            items
      in
      let degradations =
        match Option.bind (Jsonx.member "degradations" j) Jsonx.to_list_opt with
        | None -> []
        | Some items ->
          List.filter_map
            (fun d ->
              match
                ( Option.bind (Jsonx.member "stage" d) Jsonx.to_string_opt,
                  Option.bind (Jsonx.member "reason" d) Jsonx.to_string_opt,
                  Option.bind (Jsonx.member "detail" d) Jsonx.to_string_opt,
                  Option.bind (Jsonx.member "count" d) Jsonx.to_int_opt )
              with
              | Some stage, Some reason, Some detail, Some count ->
                Some { Guard.Supervisor.stage; reason; detail; count }
              | _ -> None)
            items
      in
      let ckpt =
        match Jsonx.member "ckpt" j with
        | Some (Jsonx.Obj _ as c) ->
          (match
             ( Option.bind (Jsonx.member "snapshots_written" c) Jsonx.to_int_opt,
               Option.bind (Jsonx.member "instances_reused" c) Jsonx.to_int_opt )
           with
          | Some snapshots_written, Some instances_reused ->
            Some
              { resumed_from =
                  Option.bind (Jsonx.member "resumed_from" c) Jsonx.to_string_opt;
                snapshots_written;
                instances_reused }
          | _ -> None)
        | _ -> None
      in
      let perf =
        match Jsonx.member "perf" j with
        | Some (Jsonx.Obj _ as p) ->
          let counters =
            match Jsonx.member "counters" p with
            | Some (Jsonx.Obj fields) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun n -> (k, n)) (Jsonx.to_int_opt v))
                fields
            | _ -> []
          in
          let f name =
            Option.value ~default:0.0
              (Option.bind (Jsonx.member name p) Jsonx.to_float_opt)
          in
          let pool = Jsonx.member "pool" p in
          let pool_workers =
            match Option.bind (Option.bind pool (Jsonx.member "workers")) Jsonx.to_list_opt with
            | None -> []
            | Some items ->
              List.filter_map
                (fun w ->
                  match
                    ( Option.bind (Jsonx.member "tasks" w) Jsonx.to_int_opt,
                      Option.bind (Jsonx.member "steals" w) Jsonx.to_int_opt,
                      Option.bind (Jsonx.member "busy_us" w) Jsonx.to_float_opt )
                  with
                  | Some pw_tasks, Some pw_steals, Some pw_busy_us ->
                    Some { pw_tasks; pw_steals; pw_busy_us }
                  | _ -> None)
                items
          in
          let profile =
            match Option.bind (Jsonx.member "profile" p) Jsonx.to_list_opt with
            | None -> []
            | Some items ->
              List.filter_map
                (function
                  | Jsonx.List [ stack; n ] ->
                    (match (Jsonx.to_string_opt stack, Jsonx.to_int_opt n) with
                    | Some s, Some n -> Some (s, n)
                    | _ -> None)
                  | _ -> None)
                items
          in
          Some
            { perf_counters = counters;
              perf_moves_per_s = f "moves_per_s";
              perf_wall_s = f "wall_s";
              pool_workers;
              pool_wall_us =
                Option.value ~default:0.0
                  (Option.bind (Option.bind pool (Jsonx.member "wall_us"))
                     Jsonx.to_float_opt);
              pool_maps =
                Option.value ~default:0
                  (Option.bind (Option.bind pool (Jsonx.member "maps"))
                     Jsonx.to_int_opt);
              profile }
        | _ -> None
      in
      let cost_breakdown =
        match Jsonx.member "cost_breakdown" j with
        | Some (Jsonx.Obj _ as cb) ->
          (match Option.bind (Jsonx.member "total" cb) Jsonx.to_float_opt with
          | None -> None
          | Some cb_total ->
            let cb_terms =
              match Option.bind (Jsonx.member "terms" cb) Jsonx.to_list_opt with
              | None -> []
              | Some items ->
                List.filter_map
                  (fun t ->
                    match
                      ( Option.bind (Jsonx.member "name" t) Jsonx.to_string_opt,
                        Option.bind (Jsonx.member "value" t) Jsonx.to_float_opt )
                    with
                    | Some n, Some v -> Some (n, v)
                    | _ -> None)
                  items
            in
            let cb_pairs =
              match Option.bind (Jsonx.member "pairs" cb) Jsonx.to_list_opt with
              | None -> []
              | Some items ->
                List.filter_map
                  (fun p ->
                    match
                      ( Option.bind (Jsonx.member "a" p) Jsonx.to_string_opt,
                        Option.bind (Jsonx.member "b" p) Jsonx.to_string_opt,
                        Option.bind (Jsonx.member "weight" p) Jsonx.to_float_opt,
                        Option.bind (Jsonx.member "wl" p) Jsonx.to_float_opt )
                    with
                    | Some pair_a, Some pair_b, Some pair_weight, Some pair_wl ->
                      Some { pair_a; pair_b; pair_weight; pair_wl }
                    | _ -> None)
                  items
            in
            let cb_blocks =
              match Option.bind (Jsonx.member "blocks" cb) Jsonx.to_list_opt with
              | None -> []
              | Some items ->
                List.filter_map
                  (fun b ->
                    let f name =
                      Option.bind (Jsonx.member name b) Jsonx.to_float_opt
                    in
                    match
                      ( Option.bind (Jsonx.member "name" b) Jsonx.to_string_opt,
                        f "wl", f "at_shift", f "am_deficit", f "macro_deficit" )
                    with
                    | Some bc_name, Some bc_wl, Some bc_at_shift, Some bc_am_deficit,
                      Some bc_macro_deficit ->
                      Some { bc_name; bc_wl; bc_at_shift; bc_am_deficit; bc_macro_deficit }
                    | _ -> None)
                  items
            in
            let cb_term_curves =
              match Jsonx.member "term_curves" cb with
              | Some (Jsonx.Obj fields) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun pts -> (k, pts)) (points_of_json v))
                  fields
              | _ -> []
            in
            Some { cb_total; cb_terms; cb_pairs; cb_blocks; cb_term_curves })
        | _ -> None
      in
      Ok
        { rec_version = v;
          circuit;
          flow;
          seed;
          lambda;
          cells;
          macro_count;
          qm = { wl_um; grc_pct; wns_pct; tns; runtime_s; dataflow_cost };
          displacement;
          sa_moves;
          sa_curve;
          stages;
          gc;
          die;
          macros;
          levels;
          degradations;
          ckpt;
          perf;
          cost_breakdown }

(* ---- ledger files -------------------------------------------------- *)

let ledger_schema = "hidap-qor-ledger"

let ledger_json records =
  Jsonx.Obj
    [ ("schema", Jsonx.String ledger_schema);
      ("version", Jsonx.Int version);
      ("records", Jsonx.List (List.map to_json records)) ]

let write_ledger path records = Jsonx.write_file path (ledger_json records)

let records_of_json j =
  match Jsonx.member "schema" j with
  | Some (Jsonx.String s) when s = ledger_schema ->
    (match Option.bind (Jsonx.member "records" j) Jsonx.to_list_opt with
    | None -> Error "ledger has no records array"
    | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
          (match of_json item with
          | Ok r -> go (r :: acc) rest
          | Error _ as e -> e)
      in
      go [] items)
  | Some (Jsonx.String s) when s = schema ->
    (match of_json j with Ok r -> Ok [ r ] | Error _ as e -> e)
  | _ -> Error "not a hidap-qor record or ledger"

let load_ledger path =
  match Jsonx.parse_file path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok j ->
    (match records_of_json j with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok _ as ok -> ok)
