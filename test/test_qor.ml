(* Tests for the QoR run ledger: Jsonx parsing and string escaping,
   percentile edge cases, record round-trips through JSON, the baseline
   comparator's verdicts, and the self-contained HTML report. *)

module Jsonx = Obs.Jsonx
module Metrics = Obs.Metrics
module Record = Qor.Record
module Baseline = Qor.Baseline

(* ---------------------------------------------------------------- *)
(* Jsonx: escaping and parsing                                       *)
(* ---------------------------------------------------------------- *)

let parse_ok s =
  match Jsonx.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let roundtrip v = parse_ok (Jsonx.to_string ~compact:true v)

let test_escape_roundtrip () =
  (* Control characters, quotes, backslashes and raw UTF-8 bytes must
     survive serialize -> parse unchanged. *)
  let strings =
    [ "plain";
      "quote\" backslash\\ slash/";
      "tab\t newline\n return\r";
      "bell\007 nul\000 esc\027";
      "caf\xc3\xa9 \xe6\xbc\xa2\xe5\xad\x97";
      (* U+1F600 as UTF-8 bytes *)
      "\xf0\x9f\x98\x80" ]
  in
  List.iter
    (fun s ->
      match roundtrip (Jsonx.String s) with
      | Jsonx.String s' -> Alcotest.(check string) "string survives" s s'
      | _ -> Alcotest.fail "expected a string back")
    strings

let test_unicode_escapes () =
  (* \uXXXX escapes decode to UTF-8 bytes, including surrogate pairs. *)
  let check src expect =
    match parse_ok src with
    | Jsonx.String s -> Alcotest.(check string) src expect s
    | _ -> Alcotest.fail "expected a string"
  in
  check {|"A"|} "A";
  check {|"é"|} "\xc3\xa9";
  check {|"漢字"|} "\xe6\xbc\xa2\xe5\xad\x97";
  (* surrogate pair for U+1F600 *)
  check {|"😀"|} "\xf0\x9f\x98\x80";
  (* lone high surrogate is an error, not silent garbage *)
  (match Jsonx.parse {|"\ud83d"|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lone surrogate must be rejected")

let test_parse_values () =
  Alcotest.(check bool) "int" true (parse_ok "42" = Jsonx.Int 42);
  Alcotest.(check bool) "negative" true (parse_ok "-7" = Jsonx.Int (-7));
  (match parse_ok "0.25" with
  | Jsonx.Float f -> Alcotest.(check (float 1e-12)) "float" 0.25 f
  | _ -> Alcotest.fail "expected float");
  (match parse_ok "1e3" with
  | Jsonx.Float f -> Alcotest.(check (float 1e-9)) "exponent" 1000.0 f
  | _ -> Alcotest.fail "expected float");
  Alcotest.(check bool) "null" true (parse_ok "null" = Jsonx.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" = Jsonx.Bool true);
  Alcotest.(check bool) "nested" true
    (parse_ok {| {"a":[1,2,{"b":null}],"c":"d"} |}
    = Jsonx.Obj
        [ ("a", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 2; Jsonx.Obj [ ("b", Jsonx.Null) ] ]);
          ("c", Jsonx.String "d") ])

let test_parse_errors () =
  let rejects s =
    match Jsonx.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S should fail" s
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects {|{"a":}|};
  rejects "1 2";
  rejects {|"unterminated|};
  rejects {|"\q"|}

(* ---------------------------------------------------------------- *)
(* Percentile edge cases                                             *)
(* ---------------------------------------------------------------- *)

let test_percentile_edges () =
  (* Convention: an empty sample has no percentiles; a single sample is
     every percentile. *)
  Alcotest.(check bool) "empty -> None" true (Metrics.percentile_opt [] ~p:50.0 = None);
  (match Metrics.percentile [] ~p:50.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "percentile [] must raise");
  Alcotest.(check bool) "singleton p0" true
    (Metrics.percentile_opt [ 3.0 ] ~p:0.0 = Some 3.0);
  Alcotest.(check bool) "singleton p100" true
    (Metrics.percentile_opt [ 3.0 ] ~p:100.0 = Some 3.0);
  let r = Metrics.create () in
  Alcotest.(check bool) "absent hist -> None" true
    (Metrics.hist_percentile r "nope" ~p:50.0 = None);
  Metrics.observe r "h" 1.0;
  Alcotest.(check bool) "one-sample hist" true
    (match Metrics.hist_percentile r "h" ~p:99.0 with
    | Some v -> abs_float (v -. 1.0) < 1e-9
    | None -> false)

(* ---------------------------------------------------------------- *)
(* QoR record round-trip                                             *)
(* ---------------------------------------------------------------- *)

let sample_record () =
  let rect x y w h = Geom.Rect.make ~x ~y ~w ~h in
  {
    Record.rec_version = Record.version;
    circuit = "c1";
    flow = "HiDaP";
    seed = 42;
    lambda = Some 0.5;
    cells = 1200;
    macro_count = 2;
    qm =
      {
        Record.wl_um = 123456.75;
        grc_pct = 1.5;
        wns_pct = -3.25;
        tns = -120.0;
        runtime_s = 4.25;
        dataflow_cost = 987.5;
      };
    displacement = [ ("IndEDA", 250.0); ("handFP", 80.5) ];
    sa_moves = 21312;
    sa_curve = [ (100.0, 0.9); (200.0, 0.7); (300.0, 0.4) ];
    stages =
      [ { Record.stage_name = "hidap.place"; total_us = 1.2e6; calls = 1 };
        { Record.stage_name = "floorplan.level"; total_us = 8.0e5; calls = 7 } ];
    gc =
      Some
        {
          Obs.Gcstats.minor_words = 1.0e7;
          promoted_words = 1.0e5;
          major_words = 2.0e5;
          minor_collections = 12;
          major_collections = 3;
          compactions = 0;
          heap_words = 500_000;
          top_heap_words = 600_000;
        };
    die = rect 0.0 0.0 400.0 400.0;
    macros =
      [ { Record.macro_name = "top/u0/ram"; macro_rect = rect 10.0 20.0 50.0 40.0;
          orient = Geom.Orientation.R0 };
        { Record.macro_name = "top/u1/rom"; macro_rect = rect 200.0 100.0 30.0 60.0;
          orient = Geom.Orientation.MY } ];
    levels =
      [ { Record.depth = 0; ht_id = 0; level_rect = rect 0.0 0.0 400.0 400.0;
          level_macros = 2 };
        { Record.depth = 1; ht_id = 3; level_rect = rect 0.0 0.0 200.0 400.0;
          level_macros = 1 } ];
    degradations =
      [ { Guard.Supervisor.stage = "floorplan.sa"; reason = "fault";
          detail = "injected fault at floorplan.sa"; count = 3 } ];
    ckpt =
      Some
        { Record.resumed_from = Some "snap-000004.ckpt"; snapshots_written = 2;
          instances_reused = 5 };
    perf =
      Some
        { Record.perf_counters = [ ("sa.moves", 21312); ("sa.accepts", 9000) ];
          perf_moves_per_s = 5014.6;
          perf_wall_s = 4.25;
          pool_workers =
            [ { Record.pw_tasks = 3; pw_steals = 0; pw_busy_us = 1.0e6 };
              { Record.pw_tasks = 4; pw_steals = 4; pw_busy_us = 1.1e6 } ];
          pool_wall_us = 2.0e6;
          pool_maps = 2;
          profile = [ ("hidap.place;floorplan.run", 41); ("(idle)", 3) ] };
    cost_breakdown =
      Some
        { Record.cb_total = 1234.5;
          cb_terms =
            [ ("wirelength", 1200.0); ("at_penalty", 30.0); ("am_penalty", 4.0);
              ("macro_penalty", 0.0); ("residual", 0.5) ];
          cb_pairs =
            [ { Record.pair_a = "gdf0"; pair_b = "gdf1"; pair_weight = 2.0;
                pair_wl = 700.0 };
              { Record.pair_a = "gdf1"; pair_b = "port:N"; pair_weight = 1.0;
                pair_wl = 500.0 } ];
          cb_blocks =
            [ { Record.bc_name = "gdf0"; bc_wl = 700.0; bc_at_shift = 10.0;
                bc_am_deficit = 0.0; bc_macro_deficit = 0.0 };
              { Record.bc_name = "gdf1"; bc_wl = 1200.0; bc_at_shift = 5.0;
                bc_am_deficit = 2.0; bc_macro_deficit = 0.0 } ];
          cb_term_curves =
            [ ("wirelength", [ (100.0, 1400.0); (200.0, 1200.0) ]);
              ("am_penalty", [ (100.0, 9.0); (200.0, 4.0) ]) ] };
  }

let test_record_roundtrip () =
  let r = sample_record () in
  let json = roundtrip (Record.to_json r) in
  match Record.of_json json with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok r' ->
    Alcotest.(check string) "circuit" r.Record.circuit r'.Record.circuit;
    Alcotest.(check string) "flow" r.Record.flow r'.Record.flow;
    Alcotest.(check int) "seed" r.Record.seed r'.Record.seed;
    Alcotest.(check bool) "lambda" true (r'.Record.lambda = Some 0.5);
    Alcotest.(check (float 1e-6)) "wl_um" r.Record.qm.Record.wl_um
      r'.Record.qm.Record.wl_um;
    Alcotest.(check (float 1e-6)) "tns" r.Record.qm.Record.tns r'.Record.qm.Record.tns;
    Alcotest.(check (float 1e-6)) "dataflow" r.Record.qm.Record.dataflow_cost
      r'.Record.qm.Record.dataflow_cost;
    Alcotest.(check int) "sa_moves" r.Record.sa_moves r'.Record.sa_moves;
    Alcotest.(check int) "curve points" (List.length r.Record.sa_curve)
      (List.length r'.Record.sa_curve);
    Alcotest.(check int) "stages" (List.length r.Record.stages)
      (List.length r'.Record.stages);
    Alcotest.(check bool) "gc kept" true (r'.Record.gc <> None);
    Alcotest.(check int) "macros" 2 (List.length r'.Record.macros);
    Alcotest.(check bool) "orient kept" true
      ((List.nth r'.Record.macros 1).Record.orient = Geom.Orientation.MY);
    Alcotest.(check int) "levels" 2 (List.length r'.Record.levels);
    Alcotest.(check int) "ht_id kept" 3 (List.nth r'.Record.levels 1).Record.ht_id;
    Alcotest.(check bool) "displacement kept" true
      (r'.Record.displacement = r.Record.displacement);
    Alcotest.(check bool) "ckpt kept" true (r'.Record.ckpt = r.Record.ckpt);
    Alcotest.(check bool) "perf kept" true (r'.Record.perf = r.Record.perf);
    Alcotest.(check bool) "cost_breakdown kept" true
      (r'.Record.cost_breakdown = r.Record.cost_breakdown);
    (* An eval-path record carries the HiDaP run's SA move count, as a
       place-path record does; the other flows anneal nothing. *)
    let flat = Netlist.Flat.elaborate (Circuitgen.Suite.fig1_design ()) in
    let die = Geom.Rect.make ~x:0.0 ~y:0.0 ~w:400.0 ~h:400.0 in
    let run kind sa_moves =
      { Evalflow.kind;
        metrics = { Evalflow.wl_um = 1.0; wl_m = 1e-6; grc_pct = 0.0; wns_pct = 0.0;
                    tns = 0.0; runtime_s = 0.0 };
        macros = [];
        placement = { Cellplace.positions = [||]; die; movable = [||] };
        lambda_used = None;
        sa_moves;
        sweep_trace = [] }
    in
    let res =
      { Evalflow.circuit = "fig1"; cells = 0; macro_count = 0;
        runs = [ run Evalflow.IndEDA 0; run Evalflow.HiDaP r.Record.sa_moves ] }
    in
    let moves =
      List.map
        (fun (e : Record.t) ->
          match Record.of_json (roundtrip (Record.to_json e)) with
          | Ok e' -> (e'.Record.flow, e'.Record.sa_moves)
          | Error e -> Alcotest.failf "eval record of_json failed: %s" e)
        (Record.of_eval ~circuit:"fig1" ~flat ~config:Hidap.Config.default res)
    in
    Alcotest.(check (list (pair string int))) "eval records keep sa_moves"
      [ ("IndEDA", 0); ("HiDaP", r.Record.sa_moves) ] moves

let test_record_versioning () =
  let r = sample_record () in
  (* Unknown fields are ignored. *)
  let with_extra =
    match Record.to_json r with
    | Jsonx.Obj fields -> Jsonx.Obj (fields @ [ ("future_field", Jsonx.Int 1) ])
    | _ -> Alcotest.fail "record must serialize to an object"
  in
  (match Record.of_json with_extra with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unknown field must be ignored: %s" e);
  (* Newer versions are refused. *)
  let newer =
    match Record.to_json r with
    | Jsonx.Obj fields ->
      Jsonx.Obj
        (List.map
           (fun (k, v) -> if k = "version" then (k, Jsonx.Int 999) else (k, v))
           fields)
    | _ -> assert false
  in
  (match Record.of_json newer with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "newer schema version must be refused");
  (* A v2 record (no cost_breakdown section) reads back with None. *)
  let v2 =
    match Record.to_json r with
    | Jsonx.Obj fields ->
      Jsonx.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "cost_breakdown" then None
             else if k = "version" then Some (k, Jsonx.Int 2)
             else Some (k, v))
           fields)
    | _ -> assert false
  in
  match Record.of_json v2 with
  | Error e -> Alcotest.failf "v2 record must still parse: %s" e
  | Ok r' ->
    Alcotest.(check bool) "v2 reads back without a breakdown" true
      (r'.Record.cost_breakdown = None)

let test_ledger_roundtrip () =
  let r = sample_record () in
  let doc = roundtrip (Record.ledger_json [ r; { r with Record.flow = "IndEDA" } ]) in
  match Record.records_of_json doc with
  | Error e -> Alcotest.failf "ledger parse failed: %s" e
  | Ok rs ->
    Alcotest.(check int) "two records" 2 (List.length rs);
    Alcotest.(check (list string)) "flows" [ "HiDaP"; "IndEDA" ]
      (List.map (fun (x : Record.t) -> x.Record.flow) rs);
    (* A bare record is accepted too. *)
    (match Record.records_of_json (Record.to_json r) with
    | Ok [ _ ] -> ()
    | _ -> Alcotest.fail "bare record must parse as a one-record ledger")

(* ---------------------------------------------------------------- *)
(* Baseline comparator                                               *)
(* ---------------------------------------------------------------- *)

let test_comparator_verdicts () =
  let r = sample_record () in
  let base = Baseline.of_records [ r ] in
  (* Unmodified record: exactly unchanged. *)
  let c = Baseline.compare_record base r in
  Alcotest.(check bool) "same -> Unchanged" true
    (c.Baseline.run_verdict = Baseline.Unchanged);
  Alcotest.(check bool) "baseline found" false c.Baseline.missing_baseline;
  (* 10% wirelength regression trips the 2% tolerance. *)
  let worse =
    { r with Record.qm = { r.Record.qm with Record.wl_um = r.Record.qm.Record.wl_um *. 1.10 } }
  in
  Alcotest.(check bool) "wl +10%% -> Regressed" true
    ((Baseline.compare_record base worse).Baseline.run_verdict = Baseline.Regressed);
  (* WNS is higher-is-better: moving toward zero is an improvement. *)
  let better =
    { r with Record.qm = { r.Record.qm with Record.wns_pct = -1.0 } }
  in
  Alcotest.(check bool) "wns improves -> Improved" true
    ((Baseline.compare_record base better).Baseline.run_verdict = Baseline.Improved);
  (* ... and degrading it regresses. *)
  let wns_worse =
    { r with Record.qm = { r.Record.qm with Record.wns_pct = -8.0 } }
  in
  Alcotest.(check bool) "wns degrades -> Regressed" true
    ((Baseline.compare_record base wns_worse).Baseline.run_verdict = Baseline.Regressed);
  (* Runtime is never gated. *)
  let slow =
    { r with Record.qm = { r.Record.qm with Record.runtime_s = 1000.0 } }
  in
  Alcotest.(check bool) "runtime not gated" true
    ((Baseline.compare_record base slow).Baseline.run_verdict = Baseline.Unchanged);
  (* Unknown circuit: unchanged but flagged. *)
  let foreign = { r with Record.circuit = "c99" } in
  let cf = Baseline.compare_record base foreign in
  Alcotest.(check bool) "missing baseline flagged" true cf.Baseline.missing_baseline;
  Alcotest.(check bool) "missing baseline -> Unchanged" true
    (cf.Baseline.run_verdict = Baseline.Unchanged);
  (* overall: Regressed dominates. *)
  Alcotest.(check bool) "overall regressed" true
    (Baseline.overall (Baseline.compare_all base [ better; worse ])
    = Baseline.Regressed)

let test_baseline_json_roundtrip () =
  let base = Baseline.of_records [ sample_record () ] in
  match Baseline.of_json (roundtrip (Baseline.to_json base)) with
  | Error e -> Alcotest.failf "baseline parse failed: %s" e
  | Ok b ->
    Alcotest.(check int) "entries" 1 (List.length b.Baseline.entries);
    let e = List.hd b.Baseline.entries in
    Alcotest.(check string) "circuit" "c1" e.Baseline.circuit;
    Alcotest.(check (float 1e-6)) "wl" 123456.75 e.Baseline.qm.Record.wl_um;
    Alcotest.(check bool) "tolerances kept" true
      (List.mem_assoc "wl_um" b.Baseline.tolerances)

(* ---------------------------------------------------------------- *)
(* HTML report                                                       *)
(* ---------------------------------------------------------------- *)

let test_html_report () =
  let r = sample_record () in
  let base = Baseline.of_records [ r ] in
  let worse =
    { r with Record.qm = { r.Record.qm with Record.wl_um = r.Record.qm.Record.wl_um *. 1.10 } }
  in
  let html = Qor.Html.render ~baseline:base ~title:"c1 run" [ worse ] in
  let contains needle =
    Alcotest.(check bool) (Printf.sprintf "report contains %S" needle) true
      (Astring.String.is_infix ~affix:needle html)
  in
  contains "<!DOCTYPE html>";
  contains "<svg";
  contains "c1 run";
  contains "REGRESSED";
  contains "wl_um";
  (* floorplan + sparkline are inlined: nothing is fetched from outside
     (the SVG xmlns namespace URI is an identifier, not a reference) *)
  Alcotest.(check bool) "self-contained" false
    (Astring.String.is_infix ~affix:"src=\"http" html
    || Astring.String.is_infix ~affix:"<link" html
    || Astring.String.is_infix ~affix:"<script src" html);
  (* macro names from the record survive into the floorplan (the
     hierarchy prefix is stripped for display) *)
  contains "ram";
  contains "rom"

let suite =
  [ ( "qor",
      [ Alcotest.test_case "jsonx escape round-trip" `Quick test_escape_roundtrip;
        Alcotest.test_case "jsonx unicode escapes" `Quick test_unicode_escapes;
        Alcotest.test_case "jsonx value parsing" `Quick test_parse_values;
        Alcotest.test_case "jsonx parse errors" `Quick test_parse_errors;
        Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
        Alcotest.test_case "record json round-trip" `Quick test_record_roundtrip;
        Alcotest.test_case "record versioning rules" `Quick test_record_versioning;
        Alcotest.test_case "ledger round-trip" `Quick test_ledger_roundtrip;
        Alcotest.test_case "comparator verdicts" `Quick test_comparator_verdicts;
        Alcotest.test_case "baseline json round-trip" `Quick
          test_baseline_json_roundtrip;
        Alcotest.test_case "html report" `Quick test_html_report ] ) ]
