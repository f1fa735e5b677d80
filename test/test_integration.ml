(* End-to-end integration tests: the full evaluation pipeline on a real
   (small) circuit, exercising both flows and the cross-flow invariants
   the paper's tables rely on. *)

module Flat = Netlist.Flat
module Rect = Geom.Rect

(* One instrumented suite run shared by every case, the way `hidap
   eval` and `hidap bench` run a circuit. The elaboration count is read
   as soon as it finishes, before another case can reset the counters. *)
let suite_run =
  lazy
    (let ev =
       Qor.Run.eval ~config:Hidap.Config.default (fun () ->
           ("fig1", Flat.elaborate (Circuitgen.Suite.fig1_design ())))
     in
     (ev, Obs.Perf.to_assoc Obs.Perf.global))

let result =
  lazy
    (let ev, _ = Lazy.force suite_run in
     (ev.Qor.Run.flat, ev.Qor.Run.result))

let test_suite_run_elaborates_once () =
  let ev, counters = Lazy.force suite_run in
  Alcotest.(check int) "netlist.elaborations" 1 (List.assoc "netlist.elaborations" counters);
  Alcotest.(check int) "one record per flow" 2 (List.length ev.Qor.Run.records)

let get_run kind =
  let _, res = Lazy.force result in
  Evalflow.run_of res kind

let test_all_flows_present () =
  let _, res = Lazy.force result in
  Alcotest.(check (list string)) "order" [ "IndEDA"; "HiDaP" ]
    (List.map (fun (r : Evalflow.run) -> Evalflow.flow_name r.Evalflow.kind) res.Evalflow.runs)

let test_macro_counts () =
  let _, res = Lazy.force result in
  Alcotest.(check int) "16 macros" 16 res.Evalflow.macro_count;
  List.iter
    (fun (r : Evalflow.run) ->
      Alcotest.(check int) "all macros placed by every flow" 16
        (List.length r.Evalflow.macros))
    res.Evalflow.runs

let test_metrics_sane () =
  let _, res = Lazy.force result in
  List.iter
    (fun (r : Evalflow.run) ->
      let m = r.Evalflow.metrics in
      Alcotest.(check bool) "WL positive" true (m.Evalflow.wl_um > 0.0);
      Alcotest.(check (float 1e-12)) "meters conversion" (m.Evalflow.wl_um *. 1e-6)
        m.Evalflow.wl_m;
      Alcotest.(check bool) "GRC finite and non-negative" true
        (m.Evalflow.grc_pct >= 0.0 && Float.is_finite m.Evalflow.grc_pct);
      Alcotest.(check bool) "WNS <= 0 by construction" true (m.Evalflow.wns_pct <= 0.0);
      Alcotest.(check bool) "TNS <= 0" true (m.Evalflow.tns <= 0.0);
      Alcotest.(check bool) "runtime recorded" true (m.Evalflow.runtime_s >= 0.0))
    res.Evalflow.runs

let test_normalization () =
  let _, res = Lazy.force result in
  let norms =
    List.map
      (fun (r : Evalflow.run) -> Evalflow.normalized_wl res r)
      res.Evalflow.runs
  in
  List.iter
    (fun n -> Alcotest.(check bool) "normalized WL >= 1" true (n >= 1.0))
    norms;
  (* the best flow is the reference itself: exactly 1, not merely close *)
  Alcotest.(check (float 0.0)) "best flow normalizes to exactly 1" 1.0
    (List.fold_left Float.min infinity norms)

let test_paper_shape () =
  (* The headline result: HiDaP beats the commercial proxy. *)
  let _, res = Lazy.force result in
  let wl k = Evalflow.normalized_wl res (get_run k) in
  Alcotest.(check bool) "HiDaP < IndEDA on wirelength" true
    (wl Evalflow.HiDaP < wl Evalflow.IndEDA);
  (* and HiDaP's timing is no worse than the wall packer's *)
  let wns k = (get_run k).Evalflow.metrics.Evalflow.wns_pct in
  Alcotest.(check bool) "HiDaP WNS >= IndEDA WNS" true
    (wns Evalflow.HiDaP >= wns Evalflow.IndEDA)

let test_hidap_lambda_recorded () =
  let r = get_run Evalflow.HiDaP in
  match r.Evalflow.lambda_used with
  | Some l ->
    Alcotest.(check bool) "lambda from the sweep" true (List.mem l [ 0.2; 0.5; 0.8 ]);
    (* The run's move count is the winning lambda's placement's. *)
    let flat, _ = Lazy.force result in
    let config = { Hidap.Config.default with Hidap.Config.lambda = l } in
    Alcotest.(check int) "sa_moves of the winning lambda"
      (Hidap.place ~config flat).Hidap.sa_moves r.Evalflow.sa_moves;
    Alcotest.(check int) "IndEDA anneals nothing" 0
      (get_run Evalflow.IndEDA).Evalflow.sa_moves
  | None -> Alcotest.fail "HiDaP must record its lambda"

let test_every_flow_legal () =
  let flat, res = Lazy.force result in
  ignore flat;
  List.iter
    (fun (r : Evalflow.run) ->
      let rects =
        Array.of_list (List.map (fun (m : Cellplace.macro_place) -> m.Cellplace.rect) r.Evalflow.macros)
      in
      Alcotest.(check bool)
        (Evalflow.flow_name r.Evalflow.kind ^ " placement near-legal")
        true
        (Hidap.Legalize.total_overlap rects < 1e-3))
    res.Evalflow.runs

let test_density_maps () =
  let flat, res = Lazy.force result in
  List.iter
    (fun (r : Evalflow.run) ->
      let grid = Evalflow.density_map r ~flat ~bins:12 in
      Alcotest.(check int) "grid size" 12 (Array.length grid);
      let total = Array.fold_left (fun a col -> Array.fold_left ( +. ) a col) 0.0 grid in
      Alcotest.(check bool) "mass present" true (total > 0.0))
    res.Evalflow.runs

let test_measure_deterministic () =
  let flat, res = Lazy.force result in
  let r = List.hd res.Evalflow.runs in
  let gseq = Seqgraph.build flat in
  let die = r.Evalflow.placement.Cellplace.die in
  let ports = Hidap.Port_plan.make gseq ~die in
  let m1, _ = Evalflow.measure ~flat ~gseq ~ports ~die ~macros:r.Evalflow.macros in
  let m2, _ = Evalflow.measure ~flat ~gseq ~ports ~die ~macros:r.Evalflow.macros in
  Alcotest.(check (float 1e-9)) "same WL" m1.Evalflow.wl_um m2.Evalflow.wl_um;
  Alcotest.(check (float 1e-9)) "same GRC" m1.Evalflow.grc_pct m2.Evalflow.grc_pct;
  Alcotest.(check (float 1e-9)) "same TNS" m1.Evalflow.tns m2.Evalflow.tns

let test_flipping_improves_or_neutral () =
  (* measured WL with chosen orientations must not be worse than all-R0
     by more than noise: the flipping objective is a proxy, so allow 2% *)
  let flat, res = Lazy.force result in
  let r = get_run Evalflow.HiDaP in
  let gseq = Seqgraph.build flat in
  let die = r.Evalflow.placement.Cellplace.die in
  let ports = Hidap.Port_plan.make gseq ~die in
  let m_flip, _ = Evalflow.measure ~flat ~gseq ~ports ~die ~macros:r.Evalflow.macros in
  let r0 =
    List.map
      (fun (m : Cellplace.macro_place) -> { m with Cellplace.orient = Geom.Orientation.R0 })
      r.Evalflow.macros
  in
  let m_r0, _ = Evalflow.measure ~flat ~gseq ~ports ~die ~macros:r0 in
  ignore res;
  Alcotest.(check bool) "flipping does not hurt measurably" true
    (m_flip.Evalflow.wl_um <= m_r0.Evalflow.wl_um *. 1.02)

(* ---- the λ sweep ---------------------------------------------------- *)

let sweep = Hidap.Config.default.Hidap.Config.lambda_sweep

let test_lambda_sweep () =
  let r = get_run Evalflow.HiDaP in
  Alcotest.(check (list (float 0.0)))
    "sweep trace covers the whole sweep" sweep
    (List.map fst r.Evalflow.sweep_trace);
  let best = List.fold_left (fun a (_, wl) -> Float.min a wl) infinity r.Evalflow.sweep_trace in
  Alcotest.(check (float 0.0)) "the run is measured at the sweep minimum" best
    r.Evalflow.metrics.Evalflow.wl_um;
  Alcotest.(check (option (float 0.0)))
    "the winner is the first minimum in sweep order"
    (Some (fst (List.find (fun (_, wl) -> wl = best) r.Evalflow.sweep_trace)))
    r.Evalflow.lambda_used

let test_sweep_parallel_deterministic () =
  (* Candidates fanned across worker domains give the sequential
     sweep's outcome bit for bit. *)
  let flat, _ = Lazy.force result in
  let run jobs =
    let res =
      Evalflow.run_all ~config:{ Hidap.Config.default with Hidap.Config.jobs } ~name:"fig1" flat
    in
    List.find (fun (r : Evalflow.run) -> r.Evalflow.kind = Evalflow.HiDaP) res.Evalflow.runs
  in
  let r1 = run 1 and r2 = run 2 in
  let untimed (r : Evalflow.run) = { r.Evalflow.metrics with Evalflow.runtime_s = 0.0 } in
  Alcotest.(check bool) "same metrics" true (untimed r1 = untimed r2);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "same sweep trace" r1.Evalflow.sweep_trace r2.Evalflow.sweep_trace;
  Alcotest.(check (option (float 0.0))) "same best lambda" r1.Evalflow.lambda_used
    r2.Evalflow.lambda_used;
  Alcotest.(check bool) "bit-identical macros" true (r1.Evalflow.macros = r2.Evalflow.macros)

(* A candidate of the sweep is [Hidap.place] at its λ: preparing the
   design once changes nothing the floorplanner sees. *)
let test_candidates_equal_place () =
  let flat, _ = Lazy.force result in
  let r = get_run Evalflow.HiDaP in
  List.iter
    (fun (lambda, wl) ->
      let p =
        Hidap.place ~config:(Hidap.Config.with_lambda Hidap.Config.default lambda) flat
      in
      let m, _ =
        Evalflow.measure ~flat ~gseq:p.Hidap.gseq ~ports:p.Hidap.ports ~die:p.Hidap.die
          ~macros:p.Hidap.placements
      in
      Alcotest.(check (float 0.0)) (Printf.sprintf "WL at lambda %.1f" lambda) m.Evalflow.wl_um wl;
      if Some lambda = r.Evalflow.lambda_used then
        Alcotest.(check bool) "winner's macros" true (p.Hidap.placements = r.Evalflow.macros))
    r.Evalflow.sweep_trace

let test_prepared_once () =
  let flat, _ = Lazy.force result in
  let _, eval_counters = Lazy.force suite_run in
  ignore (Obs.Trace.instrumented (fun () -> Hidap.place flat));
  let place_counters = Obs.Perf.to_assoc Obs.Perf.global in
  let count name counters = List.assoc name counters in
  Alcotest.(check int) "shape curves combined as often as by one Hidap.place"
    (count "shape_curves.combines" place_counters)
    (count "shape_curves.combines" eval_counters);
  Alcotest.(check int) "one placement per candidate" (List.length sweep)
    (count "hidap.places" eval_counters);
  Alcotest.(check int) "one measurement per candidate, plus IndEDA's"
    (List.length sweep + 1)
    (count "cellplace.runs" eval_counters)

(* A placement has one record: the HiDaP record of an eval is the
   record [Qor.Run.place ~measure:true] makes at the winning λ — macros,
   metrics, dataflow cost, levels, SA curve and cost breakdown with its
   term curves — apart from what depends on the clock, the process or
   the other flows. On c3, whose 6-, 7- and 11-block instances anneal
   (smaller ones are solved exactly and leave no SA curve). *)
let test_eval_record_is_place_record () =
  let design =
    Circuitgen.Gen.generate (Option.get (Circuitgen.Suite.find "c3")).Circuitgen.Suite.params
  in
  let flat = Flat.elaborate design in
  let comparable r =
    match Qor.Record.to_json r with
    | Obs.Jsonx.Obj fields ->
      List.filter_map
        (fun (k, v) ->
          match (k, v) with
          | ("stages" | "gc" | "displacement" | "perf" | "ckpt"), _ -> None
          | "metrics", Obs.Jsonx.Obj m ->
            Some (k, Obs.Jsonx.Obj (List.remove_assoc "runtime_s" m))
          | _ -> Some (k, v))
        fields
    | _ -> Alcotest.fail "a record serializes to an object"
  in
  List.iter
    (fun jobs ->
      let config = { Hidap.Config.default with Hidap.Config.jobs } in
      let ev = Qor.Run.eval ~config (fun () -> ("c3", flat)) in
      let hidap =
        List.find (fun (r : Qor.Record.t) -> r.Qor.Record.flow = "HiDaP") ev.Qor.Run.records
      in
      let config = Hidap.Config.with_lambda config (Option.get hidap.Qor.Record.lambda) in
      let input =
        { Qor.Run.name = "c3"; design; flat; die = Hidap.die_for flat ~config; diags = [] }
      in
      let p, _ =
        Obs.Trace.instrumented (fun () ->
            Result.get_ok (Qor.Run.place ~config ~measure:true input))
      in
      let placed = Qor.Record.of_run ~circuit:"c3" ~flat ~config (Option.get p.Qor.Run.run) in
      Alcotest.(check bool) "the place record has a curve" true (placed.Qor.Record.sa_curve <> []);
      Alcotest.(check bool) "the place record has a breakdown" true
        (placed.Qor.Record.cost_breakdown <> None);
      List.iter2
        (fun (k, a) (k', b) ->
          Alcotest.(check string) "field" k k';
          Alcotest.(check string)
            (Printf.sprintf "%s at jobs = %d" k jobs)
            (Obs.Jsonx.to_string ~compact:true a)
            (Obs.Jsonx.to_string ~compact:true b))
        (comparable placed) (comparable hidap))
    [ 1; 2 ]

let suite =
  [ ( "integration.evalflow",
      [ Alcotest.test_case "all flows present" `Slow test_all_flows_present;
        Alcotest.test_case "macro counts" `Slow test_macro_counts;
        Alcotest.test_case "metrics sane" `Slow test_metrics_sane;
        Alcotest.test_case "normalization" `Slow test_normalization;
        Alcotest.test_case "paper shape holds" `Slow test_paper_shape;
        Alcotest.test_case "lambda recorded" `Slow test_hidap_lambda_recorded;
        Alcotest.test_case "legal placements" `Slow test_every_flow_legal;
        Alcotest.test_case "density maps" `Slow test_density_maps;
        Alcotest.test_case "measurement deterministic" `Slow test_measure_deterministic;
        Alcotest.test_case "flipping sanity" `Slow test_flipping_improves_or_neutral;
        Alcotest.test_case "one elaboration per suite run" `Slow
          test_suite_run_elaborates_once;
        Alcotest.test_case "lambda sweep" `Slow test_lambda_sweep;
        Alcotest.test_case "parallel sweep deterministic" `Slow
          test_sweep_parallel_deterministic;
        Alcotest.test_case "every sweep candidate equals Hidap.place at its lambda" `Slow
          test_candidates_equal_place;
        Alcotest.test_case "eval builds the shape curves once" `Slow test_prepared_once;
        Alcotest.test_case "eval record equals the place record of its winner" `Slow
          test_eval_record_is_place_record ] ) ]
