module Tree = Hier.Tree
module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point

type level_info = {
  depth : int;
  ht_id : int;
  rect : Rect.t;
  macro_count : int;
}

type instance_snapshot = {
  inst_blocks : Block.t array;
  inst_affinity : float array array;
  inst_rects : Rect.t array;
  inst_fixed_names : string array;
      (* sequential-graph names of the fixed endpoints, indexed like the
         affinity columns past the blocks *)
  inst_cost : float option;
  inst_breakdown : Layout_gen.breakdown option;
  inst_attribution : Layout_gen.attribution option;
      (* None when the instance was replayed from a checkpoint: the
         snapshot stores rectangles, not the layout evaluation *)
}

type t = {
  placed_macros : (int * Rect.t * Geom.Orientation.t) list;
  levels : level_info list;
  top : instance_snapshot option;
  ht_rects : (int, Rect.t) Hashtbl.t;
  sa_moves_total : int;
}

type context = {
  tree : Tree.t;
  gseq : Seqgraph.t;
  sgamma : Shape_curves.t;
  ports : Port_plan.t;
  config : Config.t;
  rng : Util.Rng.t;
  ckpt : Ckpt.Session.t option;
  die : Rect.t;
  macro_pos : (int, Point.t) Hashtbl.t;  (* flat macro id -> provisional position *)
  mutable out_macros : (int * Rect.t * Geom.Orientation.t) list;
  mutable out_levels : level_info list;
  mutable out_top : instance_snapshot option;
  ht_rects : (int, Rect.t) Hashtbl.t;
  mutable sa_moves : int;
  mutable inst_index : int;  (* completed-instance counter, preorder *)
  inst_total : int option;  (* pre-counted when progress streaming *)
}

(* Representative flat cell of a Gseq node, used to locate it in HT.
   Ports have no HT location. *)
let rep_flat (nd : Seqgraph.node) =
  match nd.Seqgraph.kind with
  | Seqgraph.Macro fid -> Some fid
  | Seqgraph.Register (fid :: _) -> Some fid
  | Seqgraph.Register [] -> None
  | Seqgraph.Port _ -> None

(* Block index of each Gseq node for one instance: the HT leaf of its
   representative cell is walked upward until an HCB node is found. *)
let block_membership ctx ~hcb =
  let block_of_ht = Hashtbl.create 16 in
  List.iteri (fun bi ht -> Hashtbl.replace block_of_ht ht bi) hcb;
  let cache = Hashtbl.create 256 in
  let rec lookup ht =
    if ht < 0 then -1
    else
      match Hashtbl.find_opt cache ht with
      | Some b -> b
      | None ->
        let b =
          match Hashtbl.find_opt block_of_ht ht with
          | Some bi -> bi
          | None -> lookup (Tree.node ctx.tree ht).Tree.parent
        in
        Hashtbl.add cache ht b;
        b
  in
  fun gid ->
    match rep_flat ctx.gseq.Seqgraph.nodes.(gid) with
    | None -> -1
    | Some fid -> lookup (Tree.ht_node_of_flat ctx.tree fid)

(* Position of a fixed endpoint: port-plan position for ports, the
   provisional position for external macros. *)
let fixed_position ctx gid =
  let nd = ctx.gseq.Seqgraph.nodes.(gid) in
  match nd.Seqgraph.kind with
  | Seqgraph.Port _ ->
    (match Port_plan.gseq_pos ctx.ports gid with
    | Some p -> p
    | None -> Rect.center ctx.die)
  | Seqgraph.Macro fid ->
    (match Hashtbl.find_opt ctx.macro_pos fid with
    | Some p -> p
    | None -> Rect.center ctx.die)
  | Seqgraph.Register _ ->
    (* registers are never fixed endpoints *)
    assert false

(* The attractor of a block: affinity-weighted centroid of the other
   endpoints' positions. [None] when the block has no affinity. *)
let attractor ~affinity ~positions bi =
  let sw = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 in
  Array.iteri
    (fun j (p : Point.t) ->
      if j <> bi then begin
        let w = affinity.(bi).(j) in
        if w > 1e-12 then begin
          sw := !sw +. w;
          sx := !sx +. (w *. p.Point.x);
          sy := !sy +. (w *. p.Point.y)
        end
      end)
    positions;
  if !sw > 0.0 then Some (Point.make (!sx /. !sw) (!sy /. !sw)) else None

(* Footprint actually used for a macro of library dimensions (w, h)
   inside [rect]: rotated (R90) when only the rotated footprint fits,
   then clamped to the rectangle. The returned orientation is the base
   orientation of the placement — rect dimensions are always consistent
   with it. *)
let oriented_fit ~w ~h ~rect =
  let fits w h = w <= rect.Rect.w +. 1e-9 && h <= rect.Rect.h +. 1e-9 in
  let w, h, orient =
    if fits w h then (w, h, Geom.Orientation.R0)
    else if fits h w then (h, w, Geom.Orientation.R90)
    else (w, h, Geom.Orientation.R0)
  in
  (min w rect.Rect.w, min h rect.Rect.h, orient)

(* Fix a single macro in the corner of its block rectangle nearest the
   attractor (paper Algorithm 2 line 11). *)
let fix_position ctx ~fid ~rect ~attract =
  let info =
    match (Tree.flat ctx.tree).Flat.nodes.(fid).Flat.kind with
    | Flat.Kmacro info -> info
    | Flat.Kflop | Flat.Kcomb | Flat.Kport _ -> assert false
  in
  let w0 = info.Netlist.Design.mw and h0 = info.Netlist.Design.mh in
  let w, h, orient = oriented_fit ~w:w0 ~h:h0 ~rect in
  let candidates =
    [ Rect.make ~x:rect.Rect.x ~y:rect.Rect.y ~w ~h;
      Rect.make ~x:(rect.Rect.x +. rect.Rect.w -. w) ~y:rect.Rect.y ~w ~h;
      Rect.make ~x:rect.Rect.x ~y:(rect.Rect.y +. rect.Rect.h -. h) ~w ~h;
      Rect.make ~x:(rect.Rect.x +. rect.Rect.w -. w) ~y:(rect.Rect.y +. rect.Rect.h -. h) ~w
        ~h ]
  in
  let target = match attract with Some p -> p | None -> Rect.center ctx.die in
  let best =
    List.fold_left
      (fun acc r ->
        let d = Point.manhattan (Rect.center r) target in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | Some _ | None -> Some (r, d))
      None candidates
  in
  let r = match best with Some (r, _) -> r | None -> assert false in
  ctx.out_macros <- (fid, r, orient) :: ctx.out_macros;
  Hashtbl.replace ctx.macro_pos fid (Rect.center r)

(* Per-plateau SA telemetry for one floorplan instance, keyed by
   recursion depth: the convergence curve [sa.curve.level<d>] (total
   moves -> acceptance rate) and the five cost-term trajectories
   [sa.term.<t>.level<d>]. Series names are pre-rendered so the
   per-plateau work is six registry appends. Only built when telemetry
   is enabled, so the default path adds a single boolean test; the
   observer runs outside the SA RNG path (Anneal.Sa), so enabling it
   cannot change a placement. *)
let sa_observer ~depth =
  if not (Obs.Perf.enabled ()) then None
  else begin
    let curve_name = Printf.sprintf "sa.curve.level%d" depth in
    let term_names =
      List.map
        (fun t -> Printf.sprintf "sa.term.%s.level%d" t depth)
        Layout_gen.term_names
    in
    Some
      (fun (p : Anneal.Sa.plateau) (b : Layout_gen.breakdown) ->
        let x = float_of_int p.Anneal.Sa.total_moves in
        Obs.Perf.series curve_name ~x ~y:(Anneal.Sa.acceptance_rate p);
        List.iter2
          (fun name (_, v) -> Obs.Perf.series name ~x ~y:v)
          term_names
          (Layout_gen.breakdown_terms b))
  end

(* Instance count of the recursion below [nh], mirroring the
   decluster/recurse structure of [instance_body] without running any
   placement. Only evaluated when progress streaming is on (to report
   "instance i/n"); declustering consumes no RNG, so the pre-pass
   cannot perturb the flow. *)
let rec count_instances ctx ~nh =
  let config = ctx.config in
  let dc =
    Hier.Decluster.run ctx.tree ~nh ~open_frac:config.Config.open_frac
      ~min_frac:config.Config.min_frac
  in
  match dc.Hier.Decluster.hcb with
  | [] -> 0
  | hcb ->
    List.fold_left
      (fun acc ht ->
        match Tree.macros_below ctx.tree ht with
        | _ :: _ :: _ -> acc + count_instances ctx ~nh:ht
        | _ -> acc)
      1 hcb

let rec instance ctx ~nh ~budget ~depth =
  Obs.Span.with_ ~name:"floorplan.level" (fun () -> instance_body ctx ~nh ~budget ~depth)

and instance_body ctx ~nh ~budget ~depth =
  Obs.Span.attr_int "depth" depth;
  Obs.Span.attr_int "ht_id" nh;
  Obs.Span.attr_float "lambda" ctx.config.Config.lambda;
  let config = ctx.config in
  let dc =
    Hier.Decluster.run ctx.tree ~nh ~open_frac:config.Config.open_frac
      ~min_frac:config.Config.min_frac
  in
  match dc.Hier.Decluster.hcb with
  | [] -> () (* nothing to place below this node *)
  | hcb ->
    let blocks =
      Target_area.assign ctx.tree ~sgamma:ctx.sgamma ~hcb ~hcg:dc.Hier.Decluster.hcg
    in
    let n_blocks = Array.length blocks in
    let block_of_node = block_membership ctx ~hcb in
    (* Fixed endpoints: all port arrays plus macros outside this subtree. *)
    let fixed =
      Array.of_list
        (List.filter_map
           (fun (nd : Seqgraph.node) ->
             match nd.Seqgraph.kind with
             | Seqgraph.Port _ -> Some nd.Seqgraph.id
             | Seqgraph.Macro _ ->
               if block_of_node nd.Seqgraph.id < 0 then Some nd.Seqgraph.id else None
             | Seqgraph.Register _ -> None)
           (Array.to_list ctx.gseq.Seqgraph.nodes))
    in
    (* When dataflow affinity is unavailable the instance is laid out
       area-only: a zero matrix keeps every block a valid SA operand
       while the cost reduces to the legality terms. *)
    let n_endpoints = n_blocks + Array.length fixed in
    let affinity =
      Guard.Supervisor.protect ~stage:"floorplan.affinity"
        ~fallback:(fun _ -> Array.make_matrix n_endpoints n_endpoints 0.0)
        (fun () ->
          Guard.Fault.hit "floorplan.affinity";
          let gdf = Dataflow.Gdf.build ctx.gseq ~n_blocks ~block_of_node ~fixed in
          Dataflow.Gdf.affinity_matrix gdf ~lambda:config.Config.lambda
            ~k:config.Config.k ())
    in
    let fixed_pos = Array.map (fun gid -> fixed_position ctx gid) fixed in
    (* Checkpoint unit: one completed instance. A resumed run takes the
       recorded rectangles and restores the RNG to its post-instance
       state instead of re-annealing, so the rest of the recursion —
       and everything downstream — replays bit-identically. *)
    let cached =
      match ctx.ckpt with
      | None -> None
      | Some session -> Ckpt.Session.lookup_instance session ~nh ~n_blocks
    in
    ctx.inst_index <- ctx.inst_index + 1;
    let rects, inst_moves, layout_opt =
      match cached with
      | Some e ->
        Util.Rng.set_state ctx.rng e.Ckpt.State.rng_after;
        Obs.Span.attr_int "ckpt_reused" 1;
        (e.Ckpt.State.rects, e.Ckpt.State.sa_moves, None)
      | None ->
        let streaming = Obs.Stream.enabled () in
        let t0 = if streaming then Obs.Clock.now_us () else 0.0 in
        let layout =
          Layout_gen.run ?observer:(sa_observer ~depth) ~rng:ctx.rng ~config ~blocks
            ~affinity ~fixed_pos ~budget ()
        in
        if streaming then begin
          let dur_s = (Obs.Clock.now_us () -. t0) /. 1e6 in
          let moves = layout.Layout_gen.sa_moves in
          Obs.Stream.sa_progress ~instance:ctx.inst_index ?instances:ctx.inst_total
            ~temperature:layout.Layout_gen.final_temperature
            ~best_cost:layout.Layout_gen.cost
            ~cost_terms:(Layout_gen.breakdown_terms layout.Layout_gen.breakdown)
            ~moves
            ~moves_per_s:(if dur_s > 0.0 then float_of_int moves /. dur_s else 0.0)
            ()
        end;
        (match ctx.ckpt with
        | None -> ()
        | Some session ->
          Ckpt.Session.instance_done session ~nh ~depth ~n_blocks
            ~rects:layout.Layout_gen.rects ~sa_moves:layout.Layout_gen.sa_moves
            ~rng_after:(Util.Rng.state ctx.rng));
        (layout.Layout_gen.rects, layout.Layout_gen.sa_moves, Some layout)
    in
    ctx.sa_moves <- ctx.sa_moves + inst_moves;
    Obs.Span.attr_int "blocks" n_blocks;
    Obs.Span.attr_int "sa_moves" inst_moves;
    Obs.Perf.add Obs.Perf.fp_instances 1;
    Obs.Perf.add Obs.Perf.fp_sa_moves inst_moves;
    (* Record rectangles; update provisional macro positions. *)
    let positions = Array.append (Array.map Rect.center rects) fixed_pos in
    Array.iteri
      (fun bi (b : Block.t) ->
        let r = rects.(bi) in
        Hashtbl.replace ctx.ht_rects b.Block.ht_id r;
        ctx.out_levels <-
          { depth; ht_id = b.Block.ht_id; rect = r; macro_count = b.Block.macro_count }
          :: ctx.out_levels;
        List.iter
          (fun fid -> Hashtbl.replace ctx.macro_pos fid (Rect.center r))
          (Tree.macros_below ctx.tree b.Block.ht_id))
      blocks;
    if depth = 0 then
      ctx.out_top <-
        Some
          { inst_blocks = blocks; inst_affinity = affinity;
            inst_rects = Array.copy rects;
            inst_fixed_names =
              Array.map
                (fun gid -> ctx.gseq.Seqgraph.nodes.(gid).Seqgraph.name)
                fixed;
            inst_cost =
              Option.map (fun (l : Layout_gen.result) -> l.Layout_gen.cost) layout_opt;
            inst_breakdown =
              Option.map
                (fun (l : Layout_gen.result) -> l.Layout_gen.breakdown)
                layout_opt;
            inst_attribution =
              Option.map
                (fun (l : Layout_gen.result) -> l.Layout_gen.attribution)
                layout_opt };
    (* Recurse / fix. *)
    Array.iteri
      (fun bi (b : Block.t) ->
        let r = rects.(bi) in
        if b.Block.macro_count > 1 then
          instance ctx ~nh:b.Block.ht_id ~budget:r ~depth:(depth + 1)
        else if b.Block.macro_count = 1 then begin
          let fid =
            match Tree.macros_below ctx.tree b.Block.ht_id with
            | [ fid ] -> fid
            | _ -> assert false
          in
          let attract = attractor ~affinity ~positions bi in
          fix_position ctx ~fid ~rect:r ~attract
        end)
      blocks

let run_body ~tree ~gseq ~sgamma ~ports ~config ~rng ?ckpt ~die () =
  let ctx =
    { tree; gseq; sgamma; ports; config; rng; ckpt; die;
      macro_pos = Hashtbl.create 64;
      out_macros = [];
      out_levels = [];
      out_top = None;
      ht_rects = Hashtbl.create 64;
      sa_moves = 0;
      inst_index = 0;
      inst_total = None }
  in
  let ctx =
    if Obs.Stream.enabled () then
      { ctx with inst_total = Some (count_instances ctx ~nh:(Tree.root tree)) }
    else ctx
  in
  (* Provisional positions: die center. *)
  List.iter
    (fun (n : Flat.node) -> Hashtbl.replace ctx.macro_pos n.Flat.id (Rect.center die))
    (Flat.macros (Tree.flat tree));
  instance ctx ~nh:(Tree.root tree) ~budget:die ~depth:0;
  Obs.Span.attr_int "sa_moves" ctx.sa_moves;
  { placed_macros = List.rev ctx.out_macros;
    levels = List.rev ctx.out_levels;
    top = ctx.out_top;
    ht_rects = ctx.ht_rects;
    sa_moves_total = ctx.sa_moves }

let run ~tree ~gseq ~sgamma ~ports ~config ~rng ?ckpt ~die () =
  Obs.Span.with_ ~name:"floorplan.run" (fun () ->
      run_body ~tree ~gseq ~sgamma ~ports ~config ~rng ?ckpt ~die ())
