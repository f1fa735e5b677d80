(* What every workload shares: the metric table, output checks, the
   closed loop, resource readings and the traced-run recording. *)

(* ---- the metric table (BENCHMARK.json is written from it) ----------- *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float }

(* The bounds are wide because the box is: on a shared 2-core machine
   the same 6 s placement reads 5 to 8.5 s minutes apart. [setup_s]
   keeps the widest bound, so work moved into set-up still shows. *)
let e2e =
  [ { name = "wall_s"; unit_ = "s"; better = Lower; bound = 0.24 };
    { name = "cpu_s"; unit_ = "s"; better = Lower; bound = 0.24 };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.24 };
    { name = "wl_um"; unit_ = "um"; better = Lower; bound = 0.24 } ]

let layer name unit_ = { name; unit_; better = Lower; bound = 0.0 }

let layer_hi name unit_ = { name; unit_; better = Higher; bound = 0.0 }

(* Deepest floorplan depth reported on its own; deeper instances count
   in it. The suite circuits and fig1 recurse to depth 2. *)
let max_depth = 2

let per_layer =
  [ layer "hnl.print_s" "s"; layer "hnl.parse_s" "s"; layer "hnl.bytes" "bytes";
    layer "netlist.elaborate_s" "s"; layer "netlist.nodes" "count";
    layer "seqgraph.build_s" "s"; layer "hier.tree_build_s" "s";
    layer "core.shape_curves_s" "s"; layer "core.port_plan_s" "s";
    layer "floorplan.run_s" "s"; layer "floorplan.instances" "count" ]
  @ List.init (max_depth + 1) (fun d -> layer (Printf.sprintf "floorplan.depth%d_s" d) "s")
  @ [ layer "flipping.run_s" "s"; layer_hi "flipping.gain" "um";
      layer "anneal.sa_moves" "count"; layer_hi "anneal.moves_per_s" "1/s";
      layer "anneal.accept_ratio" "ratio"; layer "anneal.plateaus" "count";
      layer "slicing.cost_evals" "count"; layer "slicing.evals_per_move" "ratio";
      layer "gc.minor_words_per_move" "words"; layer "gc.major_words_per_move" "words";
      layer "gc.minor_collections" "count"; layer "gc.major_collections" "count";
      layer_hi "parexec.utilization" "ratio"; layer "parexec.idle_s" "s";
      layer "parexec.tasks" "count"; layer "parexec.steals" "count";
      layer "evalflow.measure_s" "s"; layer "evalflow.measure_calls" "count";
      layer "cellplace.run_s" "s"; layer "congestion.estimate_s" "s";
      layer "baselines.indeda_s" "s"; layer "guard.audit_s" "s";
      layer "guard.audit_violations" "count";
      layer "serve.submit_rtt_s" "s"; layer "serve.job_place_s" "s";
      layer "serve.overhead_s" "s"; layer "serve.rejected" "count";
      layer "serve.retried" "count"; layer "serve.worker_lost" "count";
      layer "ckpt.bytes_per_job" "bytes"; layer "ckpt.snapshots_per_job" "count";
      layer "qor.grc_pct" "%"; layer "qor.wns_pct" "%"; layer "trace.overhead_pct" "%" ]

(* ---- output checks --------------------------------------------------- *)

(* Every placement, audit, identity check and job is one attempted
   operation; a miss is one failed operation. *)
let attempted = Atomic.make 0

let failed = Atomic.make 0

let check what ok =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let cp_macros (ps : Hidap.macro_placement list) =
  List.map (fun (p : Hidap.macro_placement) ->
      { Cellplace.fid = p.fid; rect = p.rect; orient = p.orient }) ps

(* [Guard.Audit.run] under a benchmark span: the program opens none
   around it. *)
let audit ~flat ~die (macros : Cellplace.macro_place list) =
  Obs.Span.with_ ~name:"guard.audit" (fun () ->
      Guard.Audit.run ~flat ~die
        ~placements:
          (List.map (fun (m : Cellplace.macro_place) -> (m.fid, m.rect, m.orient)) macros))

(* [tolerate] names violation kinds that are counted (in
   guard.audit_violations) but do not fail the check. *)
let audit_ok ?(tolerate = []) what (r : Guard.Audit.report) =
  let ok =
    List.for_all (fun (v : Guard.Audit.violation) -> List.mem v.kind tolerate) r.violations
  in
  check (what ^ ": Guard.Audit clean") ok;
  if not ok then Format.eprintf "%a@." Guard.Audit.pp_summary r;
  Layer_notes.note "guard.audit_violations" (float_of_int (List.length r.violations))

(* Quality of one evaluated placement, as the benchmark reports it. *)
type qor = { wl_um : float; grc_pct : float; wns_pct : float }

let qor_of (m : Evalflow.metrics) = { wl_um = m.wl_um; grc_pct = m.grc_pct; wns_pct = m.wns_pct }

let same_metrics (a : Evalflow.metrics) (b : Evalflow.metrics) =
  { a with runtime_s = 0.0 } = { b with runtime_s = 0.0 }

(* In a traced phase: [Congestion.estimate] on the cell placement
   [Evalflow.measure] made, under a benchmark span (the program opens
   none around it inside the evaluation). Its overflow must be the one
   the evaluation reported. *)
let congestion_check ~flat ~die ~(macros : Cellplace.macro_place list) (cp : Cellplace.t)
    (m : Evalflow.metrics) =
  let c =
    Obs.Span.with_ ~name:"congestion.estimate" (fun () ->
        Congestion.estimate ~flat ~positions:cp.positions ~die
          ~macros:(List.map (fun (p : Cellplace.macro_place) -> p.rect) macros) ())
  in
  check "Congestion.estimate reproduces the evaluation's overflow"
    (c.overflow_pct = m.grc_pct)

(* ---- statistics and readings ---------------------------------------- *)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let now = Obs.Clock.now_s

(* User + system CPU of this process and of its reaped descendants. *)
let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

(* getrusage's ru_maxrss: 0 for this process, 1 for its reaped
   descendants (the largest of them). *)
external maxrss_kb : int -> int = "perfbench_maxrss_kb"

(* ---- traced-run recording --------------------------------------------- *)

(* Counters the program already exposes, read around traced operations,
   and the program's spans ([Obs.Trace]) of every recorded phase. *)
type probe = {
  mutable ops : int;
  perf : int array;
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable busy_us : float;
  mutable slot_wall_us : float;
  mutable tasks : int;
  mutable steals : int;
  mutable spans : Obs.Span.t list;
}

let new_probe () =
  { ops = 0; perf = Array.make Obs.Perf.n_ids 0; minor_words = 0.0; major_words = 0.0;
    minor_gcs = 0; major_gcs = 0; busy_us = 0.0; slot_wall_us = 0.0; tasks = 0;
    steals = 0; spans = [] }

(* The workload's set-up, traced operations and checks. *)
let main = new_probe ()

(* place-c1-serial's fig1 sweep on two domains, kept apart so its
   placements do not mix into the c1 layer times. *)
let sweep = new_probe ()

let span_lock = Mutex.create ()

(* Run [f] with the program's span recorder installed on the calling
   domain (the recorder is domain-local, so the serve clients each record
   their own jobs) and keep its spans in [probe]. *)
let record ?(probe = main) f =
  Obs.Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      let spans = Obs.Trace.finish () in
      Mutex.protect span_lock (fun () -> probe.spans <- probe.spans @ spans))
    f

(* A root span for operation [i]: the attribute ties its spans to the
   operation in the span file. *)
let op_span ?(name = "op") i f = Obs.Span.with_ ~attrs:[ ("op", string_of_int i) ] ~name f

(* The output checks of operation [i], outside its timing; recorded
   under a [check] root when the operation was traced. *)
let check_phase i ~traced f = if traced then record (fun () -> op_span ~name:"check" i f) else f ()

(* Run one traced operation on the calling domain: Obs.Perf on, program
   spans recorded, GC and pool counters read around it. *)
let traced ?(probe = main) f =
  Obs.Perf.reset Obs.Perf.global;
  Obs.Perf.set_enabled true;
  Parexec.reset_pool_stats ();
  let g0 = Gc.quick_stat () in
  Fun.protect
    ~finally:(fun () ->
      let g1 = Gc.quick_stat () in
      Obs.Perf.set_enabled false;
      let ps = Parexec.pool_stats () in
      probe.ops <- probe.ops + 1;
      Array.iteri
        (fun i c -> probe.perf.(i) <- probe.perf.(i) + c)
        (Obs.Perf.snapshot Obs.Perf.global);
      probe.minor_words <- probe.minor_words +. (g1.minor_words -. g0.minor_words);
      probe.major_words <- probe.major_words +. (g1.major_words -. g0.major_words);
      probe.minor_gcs <- probe.minor_gcs + (g1.minor_collections - g0.minor_collections);
      probe.major_gcs <- probe.major_gcs + (g1.major_collections - g0.major_collections);
      Array.iter
        (fun (w : Parexec.worker_stats) ->
          probe.busy_us <- probe.busy_us +. w.busy_us;
          probe.tasks <- probe.tasks + w.tasks;
          probe.steals <- probe.steals + w.steals)
        ps.workers;
      probe.slot_wall_us <-
        probe.slot_wall_us +. (float_of_int (Array.length ps.workers) *. ps.wall_us))
    (fun () -> record ~probe f)

(* [f] with Obs.Perf on: its value and the floorplan instances it
   annealed. *)
let count_instances f =
  Obs.Perf.reset Obs.Perf.global;
  Obs.Perf.set_enabled true;
  let v = Fun.protect ~finally:(fun () -> Obs.Perf.set_enabled false) f in
  (v, Obs.Perf.get Obs.Perf.global Obs.Perf.fp_instances)

(* [reps] set-ups, each under a [setup] root span in a traced run; the
   last one's product is kept and the fastest time reported, which is
   the steadiest reading on a shared box (see [e2e_metrics]). Each
   discarded product is released through [dispose], and each set-up
   starts on a collected heap, so a major collection left over from the
   last one does not land in the next one's time. *)
let setup ~reps ~trace ?(dispose = ignore) f =
  let once () =
    if trace then record (fun () -> Obs.Span.with_ ~name:"setup" f) else f ()
  in
  let rec go i best =
    Gc.full_major ();
    let t0 = now () in
    let v = once () in
    let best = Float.min best (now () -. t0) in
    if i + 1 >= reps then (v, best)
    else begin
      dispose v;
      go (i + 1) best
    end
  in
  go 0 infinity

(* ---- the closed loop -------------------------------------------------- *)

(* Walls of the traced and the untraced operations of a traced run. *)
let traced_walls : float list ref = ref []

let untraced_walls : float list ref = ref []

(* Run operations back to back until [seconds] have passed. Operations
   come in passes of [pass] (one per circuit on ingest-eval-suite;
   otherwise 1); operation [i] works on item [i mod pass], and at least
   one whole pass runs. In a traced run every second pass is traced and
   the others stay untraced, so the two are measured under the same
   conditions and their difference is the tracing overhead. [op] gets
   the operation index and whether it is traced, and returns its wall
   and CPU seconds. After each pass, outside any operation's timing,
   [resetup] repeats the workload's set-up and throws it away: a set-up
   lasts well under a second, too short to wait out a burst of the
   other tenants' load, so its fastest reading is taken over the whole
   region, like the operations'. Returns the untraced operations'
   readings, per item, the number of operations run, the region's wall
   time and the fastest repeated set-up. *)
let closed_loop ?(pass = 1) ?(resetup = ignore) ~seconds ~trace op =
  let min_ops = pass * if trace then 2 else 1 in
  let walls = Array.make pass [] and cpus = Array.make pass [] in
  let setup_s = ref infinity in
  let t0 = now () in
  let rec go i =
    if i >= min_ops && now () -. t0 >= seconds then i
    else begin
      let is_traced = trace && i / pass mod 2 = 1 in
      let w, c = op i is_traced in
      if is_traced then traced_walls := w :: !traced_walls
      else begin
        if trace then untraced_walls := w :: !untraced_walls;
        walls.(i mod pass) <- w :: walls.(i mod pass);
        cpus.(i mod pass) <- c :: cpus.(i mod pass)
      end;
      if (i + 1) mod pass = 0 then begin
        let s0 = now () in
        resetup ();
        setup_s := Float.min !setup_s (now () -. s0)
      end;
      go (i + 1)
    end
  in
  let ops = go 0 in
  (walls, cpus, ops, now () -. t0, !setup_s)

(* Time one operation: wall and CPU seconds of [f]. *)
let timed f =
  let w0 = now () and c0 = cpu_now () in
  let v = f () in
  (v, now () -. w0, cpu_now () -. c0)

(* ---- results ---------------------------------------------------------- *)

type outcome = {
  metrics : (string * float) list;  (** every metric of the run's kind *)
  sizes : (string * int) list;  (** input sizes, printed with the result *)
  notes : string list;  (** extra human-readable lines *)
}

(* End-to-end readings printed with the result but kept out of its JSON:
   the medians and the throughput, which swing with the shared box's
   load (see [e2e_metrics]), and two QoR readings that are 0 on some
   placements (timing met, no overflow), where a metric of
   BENCHMARK.json must never read 0. *)
let printed_only =
  [ ("jobs_per_min", "1/min"); ("wall_p50_s", "s"); ("cpu_p50_s", "s"); ("wns_pct", "%");
    ("grc_pct", "%") ]

(* [wall_s] and [cpu_s] are the run's fastest operation. The box is
   shared, and other tenants' load comes in bursts that slow CPU time as
   much as wall time; the fastest operation is the steadiest reading of
   the program's own cost, while [jobs_per_min], taken over the whole
   region, shows what the bursts cost. [walls] and [cpus] hold one list of
   readings per item of a pass; a statistic of the run is the sum over
   items of the statistic of each item's readings. [rss_kb] is the peak
   resident set the workload reports. *)
let e2e_metrics ~walls ~cpus ~setup_s ~region_s ~ops ~rss_kb ~(qor : qor) =
  let per_item stat groups = Array.fold_left (fun a l -> a +. stat l) 0.0 groups in
  let fastest = per_item (List.fold_left min infinity) in
  [ ("wall_s", fastest walls);
    ("cpu_s", fastest cpus);
    ("setup_s", setup_s);
    ("peak_rss_mb", float_of_int rss_kb /. 1024.0);
    ("wl_um", qor.wl_um);
    ("jobs_per_min", 60.0 *. float_of_int ops /. region_s);
    ("wall_p50_s", per_item median walls);
    ("cpu_p50_s", per_item median cpus);
    ("wns_pct", qor.wns_pct);
    ("grc_pct", qor.grc_pct) ]
