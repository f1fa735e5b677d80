(* End-to-end integration tests: the full evaluation pipeline on a real
   (small) circuit, exercising all three flows and the cross-flow
   invariants the paper's tables rely on. *)

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
     (ev, Obs.Perf.get Obs.Perf.global Obs.Perf.netlist_elaborations))

let result =
  lazy
    (let ev, _ = Lazy.force suite_run in
     (ev.Qor.Run.flat, ev.Qor.Run.result))

let test_suite_run_elaborates_once () =
  let ev, elaborations = Lazy.force suite_run in
  Alcotest.(check int) "netlist.elaborations" 1 elaborations;
  Alcotest.(check int) "one record per flow" 3 (List.length ev.Qor.Run.records)

let get_run kind =
  let _, res = Lazy.force result in
  List.find (fun (r : Evalflow.run) -> r.Evalflow.kind = kind) res.Evalflow.runs

let test_all_flows_present () =
  let _, res = Lazy.force result in
  Alcotest.(check int) "three flows" 3 (List.length res.Evalflow.runs);
  Alcotest.(check (list string)) "order" [ "IndEDA"; "HiDaP"; "handFP" ]
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
  Alcotest.(check (float 1e-9)) "handFP normalizes to 1" 1.0
    (Evalflow.normalized_wl res Evalflow.HandFP);
  List.iter
    (fun kind ->
      Alcotest.(check bool) "normalized WL positive" true
        (Evalflow.normalized_wl res kind > 0.0))
    [ Evalflow.IndEDA; Evalflow.HiDaP ]

let test_paper_shape () =
  (* The headline result: HiDaP beats the commercial proxy and is close
     to the expert oracle. *)
  let _, res = Lazy.force result in
  let wl k = Evalflow.normalized_wl res k in
  Alcotest.(check bool) "HiDaP < IndEDA on wirelength" true
    (wl Evalflow.HiDaP < wl Evalflow.IndEDA);
  Alcotest.(check bool) "HiDaP within 15% of handFP" true (wl Evalflow.HiDaP < 1.15);
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
          test_suite_run_elaborates_once ] ) ]
