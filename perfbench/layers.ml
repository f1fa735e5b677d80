(* The per-layer metrics of a traced run, assembled from the spans and
   counters the traced phases recorded and the noted readings. *)

open Common

(* Every span of the trees, nested ones included. *)
let rec flatten acc (s : Obs.Span.t) = List.fold_left flatten (s :: acc) s.children

let named spans name =
  List.filter (fun (s : Obs.Span.t) -> s.name = name) (List.fold_left flatten [] spans)

let sum_us spans = List.fold_left (fun a (s : Obs.Span.t) -> a +. s.dur_us) 0.0 spans

(* Mean seconds per call of a layer's span. *)
let mean_call_s spans name =
  match named spans name with
  | [] -> 0.0
  | l -> sum_us l /. 1e6 /. float_of_int (List.length l)

let depth_of (s : Obs.Span.t) = Option.bind (List.assoc_opt "depth" s.attrs) int_of_string_opt

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Self time of the program's floorplan instances by depth (an
   instance's span minus its nested instances), per floorplan run. The
   deepest reported depth also holds every deeper instance. *)
let depth_seconds spans =
  let acc = Array.make (max_depth + 1) 0.0 in
  List.iter
    (fun (s : Obs.Span.t) ->
      match depth_of s with
      | Some d ->
        let d = min d max_depth in
        let nested = List.filter (fun (c : Obs.Span.t) -> c.name = "floorplan.level") s.children in
        acc.(d) <- acc.(d) +. s.dur_us -. sum_us nested
      | None -> ())
    (named spans "floorplan.level");
  let runs = float_of_int (List.length (named spans "floorplan.run")) in
  Array.map (fun us -> ratio (us /. 1e6) runs) acc

let metrics ~(qor : qor) =
  let spans = main.spans in
  let span_s = mean_call_s spans in
  let ops = float_of_int main.ops in
  let perf (p : probe) id = float_of_int p.perf.((id : Obs.Perf.id :> int)) in
  let moves = perf main Obs.Perf.sa_moves in
  let anneal_s =
    sum_us (named spans "floorplan.run" @ named spans "shape_curves.generate") /. 1e6
  in
  (* The runtime and pool counters come from the two-domain sweep. *)
  let sweeps = float_of_int sweep.ops in
  let sweep_moves = perf sweep Obs.Perf.sa_moves in
  let overhead =
    let u = median !untraced_walls in
    100.0 *. ratio (median !traced_walls -. u) u
  in
  let depths = depth_seconds spans in
  [ ("hnl.print_s", span_s "hnl.print");
    ("hnl.parse_s", span_s "hnl.parse");
    ("hnl.bytes", Layer_notes.mean "hnl.bytes");
    ("netlist.elaborate_s", span_s "netlist.elaborate");
    ("netlist.nodes", Layer_notes.mean "netlist.nodes");
    ("seqgraph.build_s", span_s "seqgraph.build");
    ("hier.tree_build_s", span_s "hier.tree_build");
    ("core.shape_curves_s", span_s "shape_curves.generate");
    ("core.port_plan_s", span_s "port_plan.make");
    ("floorplan.run_s", span_s "floorplan.run");
    ("floorplan.instances", ratio (perf main Obs.Perf.fp_instances) ops) ]
  @ List.init (max_depth + 1) (fun d -> (Printf.sprintf "floorplan.depth%d_s" d, depths.(d)))
  @ [ ("flipping.run_s", span_s "flipping.run");
      ("flipping.gain", Layer_notes.mean "flipping.gain");
      ("anneal.sa_moves", ratio moves ops);
      ("anneal.moves_per_s", ratio moves anneal_s);
      ("anneal.accept_ratio", ratio (perf main Obs.Perf.sa_accepts) moves);
      ("anneal.plateaus", ratio (perf main Obs.Perf.sa_plateaus) ops);
      ("slicing.cost_evals", ratio (perf main Obs.Perf.cost_evals) ops);
      ("slicing.evals_per_move", ratio (perf main Obs.Perf.cost_evals) moves);
      ("gc.minor_words_per_move", ratio sweep.minor_words sweep_moves);
      ("gc.major_words_per_move", ratio sweep.major_words sweep_moves);
      ("gc.minor_collections", ratio (float_of_int sweep.minor_gcs) sweeps);
      ("gc.major_collections", ratio (float_of_int sweep.major_gcs) sweeps);
      ("parexec.utilization", ratio sweep.busy_us sweep.slot_wall_us);
      ("parexec.idle_s", ratio ((sweep.slot_wall_us -. sweep.busy_us) /. 1e6) sweeps);
      ("parexec.tasks", ratio (float_of_int sweep.tasks) sweeps);
      ("parexec.steals", ratio (float_of_int sweep.steals) sweeps);
      ("evalflow.measure_s", span_s "evalflow.measure");
      ("evalflow.measure_calls",
        ratio (float_of_int (List.length (named sweep.spans "evalflow.measure"))) sweeps);
      ("cellplace.run_s", span_s "cellplace.run");
      ("congestion.estimate_s", span_s "congestion.estimate");
      ("baselines.indeda_s", span_s "baselines.indeda");
      ("guard.audit_s", span_s "guard.audit");
      ("guard.audit_violations", Layer_notes.mean "guard.audit_violations");
      ("serve.submit_rtt_s", span_s "serve.submit");
      ("serve.job_place_s", Layer_notes.mean "serve.job_place_s");
      ("serve.overhead_s", Layer_notes.mean "serve.overhead_s");
      ("serve.rejected", Layer_notes.mean "serve.rejected");
      ("serve.retried", Layer_notes.mean "serve.retried");
      ("serve.worker_lost", Layer_notes.mean "serve.worker_lost");
      ("ckpt.bytes_per_job", Layer_notes.mean "ckpt.bytes_per_job");
      ("ckpt.snapshots_per_job", Layer_notes.mean "ckpt.snapshots_per_job");
      ("qor.grc_pct", qor.grc_pct);
      ("qor.wns_pct", qor.wns_pct);
      ("trace.overhead_pct", overhead) ]

(* A traced run reports the per-layer metrics, an untraced one the
   end-to-end metrics. *)
let of_run ~trace ~walls ~cpus ~setup_s ~region_s ~ops ~rss_kb ~qor =
  if trace then metrics ~qor else e2e_metrics ~walls ~cpus ~setup_s ~region_s ~ops ~rss_kb ~qor
