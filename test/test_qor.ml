(* Tests for the QoR run ledger: Jsonx parsing and string escaping,
   record round-trips through JSON, the baseline
   comparator's verdicts, the self-contained HTML report, and the run
   paths' front door. *)

module Jsonx = Obs.Jsonx
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
    displacement = [ ("IndEDA", 250.0); ("X", 80.5) ];
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
          profile =
            [ ("hidap.place;floorplan.run", 41_250); ("hidap.place;seqgraph.build", 1_544) ]
        };
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
    (* A run's record carries its SA move count, through JSON: a flow
       that anneals nothing records 0. *)
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
        levels = [];
        top = None;
        sweep_trace = [];
        registry = Obs.Perf.create ();
        degradations = [] }
    in
    let moves =
      List.map
        (fun run ->
          let e = Record.of_run ~circuit:"fig1" ~flat ~config:Hidap.Config.default run in
          match Record.of_json (roundtrip (Record.to_json e)) with
          | Ok e' -> (e'.Record.flow, e'.Record.sa_moves)
          | Error e -> Alcotest.failf "run record of_json failed: %s" e)
        [ run Evalflow.IndEDA 0; run Evalflow.HiDaP r.Record.sa_moves ]
    in
    Alcotest.(check (list (pair string int))) "run records keep sa_moves"
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

let test_gate_no_run () =
  let r = sample_record () in
  let rec_of circuit flow = { r with Record.circuit; flow } in
  let base =
    Baseline.of_records
      [ rec_of "c1" "IndEDA"; rec_of "c1" "HiDaP"; rec_of "c1" "X"; rec_of "c5" "IndEDA" ]
  in
  let records = [ rec_of "c1" "IndEDA"; rec_of "c1" "HiDaP" ] in
  let cs = Baseline.compare_all base records in
  Alcotest.(check bool) "a flow with no record regresses the gate" true
    (Baseline.overall cs = Baseline.Regressed);
  Alcotest.(check (list (pair string string))) "exactly one NO RUN: c1 X"
    [ ("c1", "X") ]
    (List.filter_map
       (fun (c : Baseline.comparison) ->
         if c.Baseline.missing_run then Some (c.Baseline.c_circuit, c.Baseline.c_flow)
         else None)
       cs);
  Alcotest.(check bool) "c5 not covered by the run: ignored" false
    (List.exists (fun (c : Baseline.comparison) -> c.Baseline.c_circuit = "c5") cs);
  Alcotest.(check int) "render shows NO RUN once" 1
    (List.length (Astring.String.cuts ~sep:"NO RUN" (Baseline.render cs)) - 1);
  Alcotest.(check bool) "html shows NO RUN" true
    (Astring.String.is_infix ~affix:"NO RUN"
       (Qor.Html.render ~baseline:base ~title:"c1 run" records));
  (* Without the c1 X entry the same run passes: c5 alone never fails it. *)
  let base' =
    Baseline.of_records [ rec_of "c1" "IndEDA"; rec_of "c1" "HiDaP"; rec_of "c5" "IndEDA" ]
  in
  Alcotest.(check bool) "covered entries all ran -> Unchanged" true
    (Baseline.overall (Baseline.compare_all base' records) = Baseline.Unchanged)

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

(* [hidap report DIR] renders every QoR ledger in DIR, names a QoR
   document that fails to decode, and passes over other JSON (a
   --metrics file) in silence. *)
let test_report_dir_names_skipped () =
  Tmp_dir.with_dir "hidap-report" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let r = sample_record () in
  let file name = Filename.concat dir name in
  Record.write_ledger (file "good.json") [ r ];
  (match Record.to_json r with
  | Jsonx.Obj fields ->
    Jsonx.write_file (file "bad.json")
      (Jsonx.Obj
         (List.map (fun (k, v) -> if k = "seed" then (k, Jsonx.String "7") else (k, v)) fields))
  | _ -> Alcotest.fail "record must serialize to an object");
  Jsonx.write_file (file "metrics.json") (Jsonx.Obj [ ("counters", Jsonx.Obj []) ]);
  let cli = Lazy.force Test_serve.cli in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let errfd = Unix.openfile (file "stderr") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid = Unix.create_process cli [| cli; "report"; dir |] Unix.stdin null errfd in
  Unix.close null;
  Unix.close errfd;
  let _, status = Unix.waitpid [] pid in
  let stderr = In_channel.with_open_bin (file "stderr") In_channel.input_all in
  Alcotest.(check bool) ("exit 0; stderr:\n" ^ stderr) true (status = Unix.WEXITED 0);
  Alcotest.(check string) "the bad ledger is named with its error"
    (Printf.sprintf "hidap: skipping %s: seed: expected an integer, got \"7\"\n"
       (file "bad.json"))
    stderr;
  Alcotest.(check (list bool)) "only the good ledger is rendered" [ true; false; false ]
    (List.map Sys.file_exists [ file "good.html"; file "bad.html"; file "metrics.html" ])

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
  contains "rom";
  (* a placement whose floorplan instances were all solved exactly has
     no SA curve, like an IndEDA record *)
  let exact = { r with Record.sa_curve = []; sa_moves = 0 } in
  Alcotest.(check bool) "an empty SA curve renders" true
    (Astring.String.is_infix ~affix:"(no convergence series)"
       (Qor.Html.render ~title:"exact" [ exact ]))

(* Each eval record describes its own flow: the HiDaP record's stages
   are its own flow span (one evalflow.flow, one candidate and one
   measurement per λ, no elaboration and nothing of IndEDA's; IndEDA's
   one candidate goes through the same runner), and its GC is the
   winning candidate's snapshot. *)
let test_eval_record_own_flow () =
  let config = Hidap.Config.default in
  let ev =
    Qor.Run.eval ~config (fun () ->
        ("fig1", Netlist.Flat.elaborate (Circuitgen.Suite.fig1_design ())))
  in
  let record flow =
    List.find (fun (r : Record.t) -> r.Record.flow = flow) ev.Qor.Run.records
  in
  let calls (r : Record.t) name =
    match List.find_opt (fun (s : Record.stage) -> s.Record.stage_name = name) r.Record.stages with
    | Some s -> s.Record.calls
    | None -> 0
  in
  let hidap = record "HiDaP" and indeda = record "IndEDA" in
  List.iter
    (fun (what, r, name, n) -> Alcotest.(check int) (what ^ " " ^ name) n (calls r name))
    [ ("HiDaP", hidap, "evalflow.flow", 1);
      ("HiDaP", hidap, "evalflow.measure", List.length config.Hidap.Config.lambda_sweep);
      ("HiDaP", hidap, "evalflow.candidate", List.length config.Hidap.Config.lambda_sweep);
      ("HiDaP", hidap, "netlist.elaborate", 0);
      ("IndEDA", indeda, "evalflow.flow", 1);
      ("IndEDA", indeda, "evalflow.measure", 1);
      ("IndEDA", indeda, "evalflow.candidate", 1);
      ("IndEDA", indeda, "floorplan.run", 0) ];
  let reg = (Evalflow.run_of ev.Qor.Run.result Evalflow.HiDaP).Evalflow.registry in
  let gauge name = Obs.Perf.gauge_value reg ("gc." ^ name) in
  (match hidap.Record.gc with
  | None -> Alcotest.fail "HiDaP eval record has no GC snapshot"
  | Some g ->
    List.iter
      (fun (name, v) ->
        Alcotest.(check (option (float 0.0))) ("gc." ^ name ^ " of the winner") (gauge name)
          (Some v))
      [ ("minor_words", g.Obs.Gcstats.minor_words);
        ("promoted_words", g.Obs.Gcstats.promoted_words);
        ("major_words", g.Obs.Gcstats.major_words);
        ("minor_collections", float_of_int g.Obs.Gcstats.minor_collections);
        ("major_collections", float_of_int g.Obs.Gcstats.major_collections);
        ("heap_words", float_of_int g.Obs.Gcstats.heap_words) ]);
  Alcotest.(check bool) "IndEDA anneals nothing, records no GC" true (indeda.Record.gc = None)

(* MD5s of the eval records of fig1 and c1, the same at jobs 1 and 2:
   the compact ledger JSON of [Qor.Run.eval]'s records, with the
   wall-clock fields zeroed (each record's runtime and stage durations)
   and every GC figure zeroed, since the heap a snapshot reads depends
   on what ran before in this process. Both circuits' instances have at
   most 5 blocks, so their records carry no SA curve and no term
   curves. *)
let golden_eval_records =
  [ ("fig1", "72785796a3eb1c500d8809001810305d"); ("c1", "5af2ad3b1b8dfc04878258b78ba2c3f0") ]

let eval_records_digest name jobs =
  let config = { Hidap.Config.default with Hidap.Config.jobs } in
  let design () =
    match Circuitgen.Suite.find name with
    | Some c -> Circuitgen.Gen.generate c.Circuitgen.Suite.params
    | None -> Circuitgen.Suite.fig1_design ()
  in
  let ev = Qor.Run.eval ~config (fun () -> (name, Netlist.Flat.elaborate (design ()))) in
  let zero_gc =
    { Obs.Gcstats.minor_words = 0.0; promoted_words = 0.0; major_words = 0.0;
      minor_collections = 0; major_collections = 0; compactions = 0; heap_words = 0;
      top_heap_words = 0 }
  in
  let untimed (r : Record.t) =
    { r with
      Record.qm = { r.Record.qm with Record.runtime_s = 0.0 };
      stages = List.map (fun (s : Record.stage) -> { s with Record.total_us = 0.0 }) r.Record.stages;
      gc = Option.map (fun _ -> zero_gc) r.Record.gc }
  in
  let json = Record.ledger_json (List.map untimed ev.Qor.Run.records) in
  Digest.to_hex (Digest.string (Jsonx.to_string ~compact:true json))

let test_golden_eval_records () =
  List.iter
    (fun (name, digest) ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s eval records at jobs = %d" name jobs)
            digest (eval_records_digest name jobs))
        [ 1; 2 ])
    golden_eval_records

(* A degradation lands on the record of the flow that recorded it: with
   every cell placement faulted, IndEDA's one measurement and HiDaP's
   one per λ each fall back, and the run's ledger holds their sum. *)
let test_eval_degradations_per_flow () =
  let spec = { Guard.Fault.site = "cellplace.run"; nth = 1; action = Guard.Fault.Raise } in
  let config = { Hidap.Config.default with Hidap.Config.faults = [ spec ] } in
  let ev =
    Qor.Run.eval ~config (fun () ->
        ("fig1", Netlist.Flat.elaborate (Circuitgen.Suite.fig1_design ())))
  in
  let count degradations =
    List.fold_left
      (fun n (e : Guard.Supervisor.entry) ->
        if e.Guard.Supervisor.stage = "cellplace.run" then n + e.Guard.Supervisor.count else n)
      0 degradations
  in
  let sweep = List.length config.Hidap.Config.lambda_sweep in
  Alcotest.(check (list (pair string int)))
    "per-flow counts" [ ("IndEDA", 1); ("HiDaP", sweep) ]
    (List.map
       (fun (r : Record.t) -> (r.Record.flow, count r.Record.degradations))
       ev.Qor.Run.records);
  Alcotest.(check int) "run ledger is the sum" (1 + sweep) (count ev.Qor.Run.degradations)

(* The run's front door: a suite circuit, a file and text load, and each
   way a load can stop is reported as its own stop. *)
let test_run_load () =
  let config = Hidap.Config.default in
  let load ?(strict = false) source = Qor.Run.load ~strict ~config source in
  let text hnl = Qor.Run.Text { name = "t"; hnl } in
  let codes ds = List.map (fun (d : Guard.Diag.t) -> d.Guard.Diag.code) ds in
  (match load (Qor.Run.Circuit "c1") with
  | Ok i ->
    Alcotest.(check string) "suite name" "c1" i.Qor.Run.name;
    Alcotest.(check bool) "die sized by die_for" true
      (i.Qor.Run.die = Hidap.die_for i.Qor.Run.flat ~config);
    Alcotest.(check (list string)) "no diagnostics" [] (codes i.Qor.Run.diags)
  | Error _ -> Alcotest.fail "c1 did not load");
  let dupinst =
    "design t\nmodule leafm { input i output o comb c (in i ; out o) }\n\
     module t { input x output y inst u0 : leafm (i => x, o => y)\n\
     inst u0 : leafm (i => x) }\n"
  in
  let path = Filename.temp_file "run-load" ".hnl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc dupinst);
      match load (Qor.Run.File path) with
      | Ok i ->
        Alcotest.(check string) "file name"
          (Filename.remove_extension (Filename.basename path)) i.Qor.Run.name;
        Alcotest.(check (list string)) "repair warned" [ "dup-instance" ]
          (codes i.Qor.Run.diags)
      | Error _ -> Alcotest.fail "repairable file did not load");
  let stop = function
    | Qor.Run.Unknown_circuit c -> "unknown " ^ c
    | Qor.Run.Parse_error { Hnl.Parser.line; col; _ } -> Printf.sprintf "parse %d:%d" line col
    | Qor.Run.Invalid_design ds -> "design " ^ String.concat "," (codes ds)
    | Qor.Run.Elaboration _ -> "elaboration"
    | Qor.Run.Invalid_netlist ds -> "netlist " ^ String.concat "," (codes ds)
  in
  let check ?strict what source expected =
    match load ?strict source with
    | Ok _ -> Alcotest.failf "%s loaded" what
    | Error s -> Alcotest.(check string) what expected (stop s)
  in
  check "unknown circuit" (Qor.Run.Circuit "c9") "unknown c9";
  check "parse error" (text "not a netlist") "parse 1:1";
  check ~strict:true "strict repair" (text dupinst) "design dup-instance";
  check "missing module" (text "design t\nmodule t { input x inst u : ghost (i => x) }\n")
    "design missing-module";
  check "no cells" (text "design e\nmodule e { input a }\n") "netlist bad-die"

let suite =
  [ ( "qor",
      [ Alcotest.test_case "jsonx escape round-trip" `Quick test_escape_roundtrip;
        Alcotest.test_case "jsonx unicode escapes" `Quick test_unicode_escapes;
        Alcotest.test_case "jsonx value parsing" `Quick test_parse_values;
        Alcotest.test_case "jsonx parse errors" `Quick test_parse_errors;
        Alcotest.test_case "record json round-trip" `Quick test_record_roundtrip;
        Alcotest.test_case "record versioning rules" `Quick test_record_versioning;
        Alcotest.test_case "ledger round-trip" `Quick test_ledger_roundtrip;
        Alcotest.test_case "comparator verdicts" `Quick test_comparator_verdicts;
        Alcotest.test_case "gate flags a flow with no run" `Quick test_gate_no_run;
        Alcotest.test_case "baseline json round-trip" `Quick
          test_baseline_json_roundtrip;
        Alcotest.test_case "report DIR names the ledgers it skips" `Quick
          test_report_dir_names_skipped;
        Alcotest.test_case "html report" `Quick test_html_report;
        Alcotest.test_case "run load: sources and stops" `Quick test_run_load;
        Alcotest.test_case "eval record describes its own flow" `Slow
          test_eval_record_own_flow;
        Alcotest.test_case "golden eval records digest" `Quick test_golden_eval_records;
        Alcotest.test_case "eval degradations land on their flow" `Quick
          test_eval_degradations_per_flow ] ) ]
