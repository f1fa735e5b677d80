module Rect = Geom.Rect

let escape = Viz.Svg.xml_escape

let css =
  {|body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif; margin: 2em auto;
        max-width: 72em; color: #1a1a2e; background: #fdfdfc; }
h1 { font-size: 1.5em; border-bottom: 2px solid #5b7aa9; padding-bottom: 0.3em; }
h2 { font-size: 1.2em; margin-top: 2em; }
h3 { font-size: 1em; color: #444; }
.meta { color: #666; font-size: 0.9em; }
.tiles { display: flex; flex-wrap: wrap; gap: 0.8em; margin: 1em 0; }
.tile { border: 1px solid #d8d8e0; border-radius: 6px; padding: 0.6em 1em; min-width: 8em;
        background: #fff; }
.tile .v { font-size: 1.3em; font-weight: 600; }
.tile .k { font-size: 0.75em; color: #777; text-transform: uppercase; }
table { border-collapse: collapse; margin: 0.8em 0; font-size: 0.9em; }
th, td { border: 1px solid #d8d8e0; padding: 0.3em 0.7em; text-align: right; }
th { background: #eef1f6; }
td.name, th.name { text-align: left; }
.improved { color: #1d7a36; font-weight: 600; }
.regressed { color: #b3261e; font-weight: 600; }
.unchanged { color: #666; }
.bar { height: 0.9em; background: #5b7aa9; display: inline-block; }
.barrow td { border: none; padding: 0.15em 0.7em; }
.levels { display: flex; flex-wrap: wrap; gap: 1em; }
.levels figure { margin: 0; }
.levels figcaption { font-size: 0.8em; color: #666; text-align: center; }
.spark { vertical-align: middle; }
footer { margin-top: 3em; color: #999; font-size: 0.8em; }|}

let fmt_f digits v = Printf.sprintf "%.*f" digits v

let tile buf ~label ~value =
  Buffer.add_string buf
    (Printf.sprintf "<div class=\"tile\"><div class=\"v\">%s</div><div class=\"k\">%s</div></div>\n"
       (escape value) (escape label))

let sparkline ?(w = 220) ?(h = 48) pts =
  match pts with
  | [] | [ _ ] -> "<span class=\"meta\">(no convergence series)</span>"
  | pts ->
    let xs = List.map fst pts and ys = List.map snd pts in
    let xmin = List.fold_left min infinity xs and xmax = List.fold_left max neg_infinity xs in
    let ymin = List.fold_left min infinity ys and ymax = List.fold_left max neg_infinity ys in
    let xr = if xmax -. xmin > 0.0 then xmax -. xmin else 1.0 in
    let yr = if ymax -. ymin > 0.0 then ymax -. ymin else 1.0 in
    let fw = float_of_int (w - 4) and fh = float_of_int (h - 4) in
    let coords =
      List.map
        (fun (x, y) ->
          Printf.sprintf "%.1f,%.1f"
            (2.0 +. ((x -. xmin) /. xr *. fw))
            (2.0 +. ((ymax -. y) /. yr *. fh)))
        pts
    in
    Printf.sprintf
      "<svg class=\"spark\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">\
       <rect width=\"%d\" height=\"%d\" fill=\"#f4f6fa\"/>\
       <polyline points=\"%s\" fill=\"none\" stroke=\"#5b7aa9\" stroke-width=\"1.5\"/></svg>"
      w h w h w h
      (String.concat " " coords)

let stage_bars buf stages =
  match stages with
  | [] -> Buffer.add_string buf "<p class=\"meta\">(run was not traced)</p>\n"
  | stages ->
    let sorted =
      List.sort
        (fun (a : Record.stage) b -> compare b.Record.total_us a.Record.total_us)
        stages
    in
    let vmax =
      match sorted with s :: _ -> Float.max s.Record.total_us 1e-9 | [] -> 1.0
    in
    Buffer.add_string buf "<table>\n";
    List.iteri
      (fun i (s : Record.stage) ->
        if i < 16 then
          Buffer.add_string buf
            (Printf.sprintf
               "<tr class=\"barrow\"><td class=\"name\">%s</td><td>%s ms</td>\
                <td>&times;%d</td><td class=\"name\" style=\"width:22em\">\
                <span class=\"bar\" style=\"width:%.1f%%\"></span></td></tr>\n"
               (escape s.Record.stage_name)
               (fmt_f 1 (s.Record.total_us /. 1e3))
               s.Record.calls
               (100.0 *. s.Record.total_us /. vmax)))
      sorted;
    Buffer.add_string buf "</table>\n"

let short_name path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let floorplans buf (r : Record.t) =
  let levels =
    List.map
      (fun (l : Record.level) ->
        { Hidap.Floorplan.depth = l.Record.depth;
          ht_id = l.Record.ht_id;
          rect = l.Record.level_rect;
          macro_count = l.Record.level_macros })
      r.Record.levels
  in
  let macros =
    List.map
      (fun (m : Record.macro) -> (short_name m.Record.macro_name, m.Record.macro_rect))
      r.Record.macros
  in
  match Viz.Svg.floorplan_levels ~die:r.Record.die ~levels ~macros () with
  | [] -> Buffer.add_string buf "<p class=\"meta\">(no geometry recorded)</p>\n"
  | snapshots ->
    Buffer.add_string buf "<div class=\"levels\">\n";
    let last = List.length snapshots - 1 in
    List.iteri
      (fun i (depth, svg) ->
        let caption =
          if i = last && r.Record.macros <> [] then "final macro placement"
          else Printf.sprintf "recursion level %d" depth
        in
        Buffer.add_string buf
          (Printf.sprintf "<figure>%s<figcaption>%s</figcaption></figure>\n" svg caption))
      snapshots;
    Buffer.add_string buf "</div>\n"

let verdict_cell (v : Baseline.verdict) =
  let name = Baseline.verdict_name v in
  Printf.sprintf "<td class=\"%s\">%s</td>" name name

let delta_table buf (c : Baseline.comparison) =
  if c.Baseline.missing_baseline then
    Buffer.add_string buf
      "<p class=\"meta\">no committed baseline for this circuit/flow</p>\n"
  else begin
    Buffer.add_string buf
      "<table><tr><th class=\"name\">metric</th><th>baseline</th><th>current</th>\
       <th>&Delta; rel</th><th>tolerance</th><th>verdict</th></tr>\n";
    List.iter
      (fun (d : Baseline.metric_delta) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td class=\"name\">%s</td><td>%s</td><td>%s</td><td>%+.2f%%</td>\
              <td>%.1f%%</td>%s</tr>\n"
             (escape d.Baseline.metric)
             (fmt_f 4 d.Baseline.baseline)
             (fmt_f 4 d.Baseline.current)
             (100.0 *. d.Baseline.rel_delta)
             (100.0 *. d.Baseline.tolerance)
             (verdict_cell d.Baseline.metric_verdict)))
      c.Baseline.deltas;
    Buffer.add_string buf "</table>\n"
  end

let gc_table buf = function
  | None -> ()
  | Some (g : Obs.Gcstats.snapshot) ->
    Buffer.add_string buf "<h3>Runtime (OCaml GC)</h3>\n<table>\n";
    Buffer.add_string buf
      (Printf.sprintf
         "<tr><th class=\"name\">allocated words</th><th>minor collections</th>\
          <th>major collections</th><th>heap words</th></tr>\n\
          <tr><td>%.3e</td><td>%d</td><td>%d</td><td>%d</td></tr>\n"
         (Obs.Gcstats.allocated_words g)
         g.Obs.Gcstats.minor_collections g.Obs.Gcstats.major_collections
         g.Obs.Gcstats.heap_words);
    Buffer.add_string buf "</table>\n"

(* ---- perf panel: pool utilization + flamegraph -------------------- *)

(* Collapsed-stack lines folded into a frame tree. Children keep first-
   appearance order, which is deterministic because the profile list is
   sorted by stack string. *)
type frame = {
  fr_name : string;
  mutable fr_total : int;
  mutable fr_children : frame list;  (* reversed during build *)
}

let frame_tree profile =
  let root = { fr_name = ""; fr_total = 0; fr_children = [] } in
  List.iter
    (fun (stack, n) ->
      root.fr_total <- root.fr_total + n;
      let frames = String.split_on_char ';' stack in
      let node = ref root in
      List.iter
        (fun name ->
          let child =
            match List.find_opt (fun c -> c.fr_name = name) !node.fr_children with
            | Some c -> c
            | None ->
              let c = { fr_name = name; fr_total = 0; fr_children = [] } in
              !node.fr_children <- !node.fr_children @ [ c ];
              c
          in
          child.fr_total <- child.fr_total + n;
          node := child)
        frames)
    profile;
  root

let flamegraph_svg profile =
  let root = frame_tree profile in
  if root.fr_total = 0 then "<p class=\"meta\">(empty profile)</p>"
  else begin
    let width = 700.0 and row_h = 17 in
    let rec depth_of f =
      1 + List.fold_left (fun acc c -> max acc (depth_of c)) 0 f.fr_children
    in
    let height = (depth_of root - 1) * row_h in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg width=\"%.0f\" height=\"%d\" viewBox=\"0 0 %.0f %d\" \
          font-family=\"monospace\" font-size=\"11\">\n"
         width (max height row_h) width (max height row_h));
    let palette = [| "#d9822b"; "#e0a458"; "#c96f2e"; "#e8b478"; "#d08f4a" |] in
    let rec emit f ~x ~depth =
      let y = depth * row_h in
      let w = width *. float_of_int f.fr_total /. float_of_int root.fr_total in
      if f.fr_name <> "" && w >= 0.5 then begin
        let fill = palette.(Hashtbl.hash f.fr_name mod Array.length palette) in
        Buffer.add_string buf
          (Printf.sprintf
             "<g><rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"%s\" \
              stroke=\"#fff\" stroke-width=\"0.5\"/><title>%s (%d µs, %.1f%%)</title>"
             x y w (row_h - 1) fill (escape f.fr_name) f.fr_total
             (100.0 *. float_of_int f.fr_total /. float_of_int root.fr_total));
        if w > 40.0 then
          Buffer.add_string buf
            (Printf.sprintf
               "<text x=\"%.1f\" y=\"%d\" fill=\"#222\">%s</text>"
               (x +. 3.0) (y + row_h - 5)
               (escape f.fr_name));
        Buffer.add_string buf "</g>\n"
      end;
      let cx = ref x in
      List.iter
        (fun c ->
          emit c ~x:!cx ~depth:(if f.fr_name = "" then depth else depth + 1);
          cx := !cx +. (width *. float_of_int c.fr_total /. float_of_int root.fr_total))
        f.fr_children
    in
    emit root ~x:0.0 ~depth:0;
    Buffer.add_string buf "</svg>";
    Buffer.contents buf
  end

let perf_section buf (r : Record.t) =
  match r.Record.perf with
  | None -> ()
  | Some p ->
    Buffer.add_string buf "<h3>Performance</h3>\n";
    Buffer.add_string buf "<div class=\"tiles\">\n";
    if p.Record.perf_moves_per_s > 0.0 then
      tile buf ~label:"SA moves/s" ~value:(fmt_f 0 p.Record.perf_moves_per_s);
    if p.Record.perf_wall_s > 0.0 then
      tile buf ~label:"place wall (s)" ~value:(fmt_f 2 p.Record.perf_wall_s);
    Buffer.add_string buf "</div>\n";
    if p.Record.perf_counters <> [] then begin
      Buffer.add_string buf "<table><tr>";
      List.iter
        (fun (k, _) ->
          Buffer.add_string buf (Printf.sprintf "<th>%s</th>" (escape k)))
        p.Record.perf_counters;
      Buffer.add_string buf "</tr><tr>";
      List.iter
        (fun (_, v) -> Buffer.add_string buf (Printf.sprintf "<td>%d</td>" v))
        p.Record.perf_counters;
      Buffer.add_string buf "</tr></table>\n"
    end;
    (match p.Record.pool_workers with
    | [] -> ()
    | workers ->
      Buffer.add_string buf
        (Printf.sprintf
           "<h3>Pool utilization <span class=\"meta\">(%d map%s, wall %s ms — \
            schedule-dependent, informational only)</span></h3>\n"
           p.Record.pool_maps
           (if p.Record.pool_maps = 1 then "" else "s")
           (fmt_f 1 (p.Record.pool_wall_us /. 1e3)));
      Buffer.add_string buf
        "<table><tr><th class=\"name\">domain</th><th>tasks</th><th>steals</th>\
         <th>busy ms</th><th class=\"name\" style=\"width:22em\">busy</th></tr>\n";
      let wall = Float.max p.Record.pool_wall_us 1e-9 in
      List.iteri
        (fun i (w : Record.pool_worker) ->
          let pct = Float.min 100.0 (100.0 *. w.Record.pw_busy_us /. wall) in
          Buffer.add_string buf
            (Printf.sprintf
               "<tr><td class=\"name\">%s</td><td>%d</td><td>%d</td><td>%s</td>\
                <td class=\"name\"><span class=\"bar\" style=\"width:%.1f%%\"></span> \
                %.0f%%</td></tr>\n"
               (if i = 0 then "caller" else Printf.sprintf "worker %d" i)
               w.Record.pw_tasks w.Record.pw_steals
               (fmt_f 1 (w.Record.pw_busy_us /. 1e3))
               pct pct))
        workers;
      Buffer.add_string buf "</table>\n");
    if p.Record.profile <> [] then begin
      Buffer.add_string buf
        "<h3>Span profile <span class=\"meta\">(span self time in µs, \
         collapsed-stack)</span></h3>\n";
      Buffer.add_string buf (flamegraph_svg p.Record.profile);
      Buffer.add_string buf "\n"
    end

(* ---- cost-term attribution (DESIGN.md §13) ------------------------ *)

(* Per-pair wl shares folded into a symmetric block × block matrix.
   Endpoints that are not top-level blocks (fixed siblings, port
   groups) are aggregated under one "fixed" row/column. *)
let contribution_matrix (cb : Record.cost_breakdown) =
  let block_names = List.map (fun b -> b.Record.bc_name) cb.Record.cb_blocks in
  let has_fixed =
    List.exists
      (fun p ->
        (not (List.mem p.Record.pair_a block_names))
        || not (List.mem p.Record.pair_b block_names))
      cb.Record.cb_pairs
  in
  let labels =
    Array.of_list (if has_fixed then block_names @ [ "fixed" ] else block_names)
  in
  let n = Array.length labels in
  let index name =
    let rec go i = function
      | [] -> n - 1 (* the "fixed" slot *)
      | b :: rest -> if b = name then i else go (i + 1) rest
    in
    go 0 block_names
  in
  let values = Array.make_matrix n n 0.0 in
  List.iter
    (fun p ->
      let i = index p.Record.pair_a and j = index p.Record.pair_b in
      values.(i).(j) <- values.(i).(j) +. p.Record.pair_wl;
      if i <> j then values.(j).(i) <- values.(j).(i) +. p.Record.pair_wl)
    cb.Record.cb_pairs;
  (labels, values)

let breakdown_section buf (r : Record.t) =
  match r.Record.cost_breakdown with
  | None -> ()
  | Some cb ->
    Buffer.add_string buf
      "<h3>Cost breakdown <span class=\"meta\">(terms sum to the SA scalar \
       bit-exactly)</span></h3>\n";
    Buffer.add_string buf
      "<table><tr><th class=\"name\">term</th><th>value</th><th>share</th>\
       <th class=\"name\">trajectory</th></tr>\n";
    let total = if cb.Record.cb_total <> 0.0 then cb.Record.cb_total else 1.0 in
    List.iter
      (fun (name, v) ->
        let curve =
          match List.assoc_opt name cb.Record.cb_term_curves with
          | Some pts when List.length pts > 1 -> sparkline ~w:160 ~h:32 pts
          | _ -> "<span class=\"meta\">-</span>"
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td class=\"name\">%s</td><td>%s</td><td>%.2f%%</td>\
              <td class=\"name\">%s</td></tr>\n"
             (escape name) (fmt_f 4 v)
             (100.0 *. v /. total)
             curve))
      cb.Record.cb_terms;
    Buffer.add_string buf
      (Printf.sprintf
         "<tr><td class=\"name\">total</td><td>%s</td><td>100.00%%</td><td></td></tr>\n\
          </table>\n"
         (fmt_f 4 cb.Record.cb_total));
    (match cb.Record.cb_blocks with
    | [] -> ()
    | blocks ->
      Buffer.add_string buf
        "<h3>Per-block attribution <span class=\"meta\">(raw, unnormalized \
         charges)</span></h3>\n";
      Buffer.add_string buf
        "<table><tr><th class=\"name\">block</th><th>wl share</th><th>at shift</th>\
         <th>am deficit</th><th>macro deficit</th></tr>\n";
      let sorted =
        List.sort (fun a b -> compare b.Record.bc_wl a.Record.bc_wl) blocks
      in
      List.iter
        (fun b ->
          Buffer.add_string buf
            (Printf.sprintf
               "<tr><td class=\"name\">%s</td><td>%s</td><td>%s</td><td>%s</td>\
                <td>%s</td></tr>\n"
               (escape b.Record.bc_name) (fmt_f 2 b.Record.bc_wl)
               (fmt_f 2 b.Record.bc_at_shift)
               (fmt_f 2 b.Record.bc_am_deficit)
               (fmt_f 2 b.Record.bc_macro_deficit)))
        sorted;
      Buffer.add_string buf "</table>\n");
    if cb.Record.cb_pairs <> [] then begin
      let labels, values = contribution_matrix cb in
      Buffer.add_string buf
        "<h3>Affinity wirelength contributions <span class=\"meta\">(weight &times; \
         distance per pair; hover for values)</span></h3>\n";
      Buffer.add_string buf (Viz.Svg.contribution_heatmap ~labels ~values ());
      Buffer.add_string buf "\n"
    end

let record_section buf ?baseline (r : Record.t) =
  Buffer.add_string buf
    (Printf.sprintf "<h2>%s &middot; %s</h2>\n" (escape r.Record.circuit)
       (escape r.Record.flow));
  Buffer.add_string buf
    (Printf.sprintf
       "<p class=\"meta\">seed %d &middot; lambda %s &middot; %d cells &middot; %d \
        macros &middot; schema v%d</p>\n"
       r.Record.seed
       (match r.Record.lambda with Some l -> fmt_f 2 l | None -> "-")
       r.Record.cells r.Record.macro_count r.Record.rec_version);
  Buffer.add_string buf "<div class=\"tiles\">\n";
  let q = r.Record.qm in
  tile buf ~label:"WL (m)" ~value:(fmt_f 3 (q.Record.wl_um *. 1e-6));
  tile buf ~label:"GRC overflow %" ~value:(fmt_f 2 q.Record.grc_pct);
  tile buf ~label:"WNS %" ~value:(fmt_f 1 q.Record.wns_pct);
  tile buf ~label:"TNS (ps)" ~value:(fmt_f 0 q.Record.tns);
  tile buf ~label:"runtime (s)" ~value:(fmt_f 2 q.Record.runtime_s);
  if q.Record.dataflow_cost > 0.0 then
    tile buf ~label:"dataflow cost" ~value:(fmt_f 0 q.Record.dataflow_cost);
  Buffer.add_string buf "</div>\n";
  (match baseline with
  | Some b ->
    Buffer.add_string buf "<h3>QoR vs committed baseline</h3>\n";
    delta_table buf (Baseline.compare_record b r)
  | None -> ());
  if r.Record.displacement <> [] then begin
    Buffer.add_string buf
      "<h3>Macro displacement vs other flows</h3>\n<table><tr>";
    List.iter
      (fun (flow, _) ->
        Buffer.add_string buf (Printf.sprintf "<th>vs %s</th>" (escape flow)))
      r.Record.displacement;
    Buffer.add_string buf "</tr><tr>";
    List.iter
      (fun (_, d) -> Buffer.add_string buf (Printf.sprintf "<td>%s um</td>" (fmt_f 1 d)))
      r.Record.displacement;
    Buffer.add_string buf "</tr></table>\n"
  end;
  Buffer.add_string buf "<h3>Floorplan</h3>\n";
  floorplans buf r;
  Buffer.add_string buf
    (Printf.sprintf "<h3>SA convergence</h3>\n<p>%s <span class=\"meta\">%d moves, \
                     acceptance rate per plateau</span></p>\n"
       (sparkline r.Record.sa_curve) r.Record.sa_moves);
  breakdown_section buf r;
  Buffer.add_string buf "<h3>Stage wall-clock</h3>\n";
  stage_bars buf r.Record.stages;
  perf_section buf r;
  gc_table buf r.Record.gc

let render ?baseline ~title records =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"/>\n";
  Buffer.add_string buf (Printf.sprintf "<title>%s</title>\n" (escape title));
  Buffer.add_string buf (Printf.sprintf "<style>%s</style>\n</head>\n<body>\n" css);
  Buffer.add_string buf (Printf.sprintf "<h1>%s</h1>\n" (escape title));
  (match baseline, records with
  | Some b, _ :: _ ->
    let comparisons = Baseline.compare_all b records in
    Buffer.add_string buf
      (Printf.sprintf "<p>Overall verdict: <span class=\"%s\">%s</span></p>\n"
         (Baseline.verdict_name (Baseline.overall comparisons))
         (String.uppercase_ascii
            (Baseline.verdict_name (Baseline.overall comparisons))));
    List.iter
      (fun (c : Baseline.comparison) ->
        if c.Baseline.missing_run then
          Buffer.add_string buf
            (Printf.sprintf
               "<p class=\"regressed\">%s &middot; %s: NO RUN (baseline entry has no \
                record)</p>\n"
               (escape c.Baseline.c_circuit) (escape c.Baseline.c_flow)))
      comparisons
  | _ -> ());
  List.iter (fun r -> record_section buf ?baseline r) records;
  Buffer.add_string buf
    (Printf.sprintf
       "<footer>hidap QoR report &middot; schema %s v%d &middot; self-contained (no \
        external assets)</footer>\n"
       Record.schema Record.version);
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
