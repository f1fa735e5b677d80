(* Tests for the observability library: spans, Chrome-trace export,
   metrics registry, SA plateau observer, and the guarantee that turning
   telemetry on does not perturb placement results. *)

module Span = Obs.Span
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Jsonx = Obs.Jsonx
module Sa = Anneal.Sa

(* Run [f] under a virtual clock that advances 1 s per reading, with the
   recorder active; restores the wall clock and stops recording after. *)
let with_fake_trace f =
  let t = ref 0.0 in
  Obs.Clock.set_source (fun () ->
      let v = !t in
      t := v +. 1.0;
      v);
  Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      ignore (Trace.finish ());
      Obs.Clock.use_wall ())
    (fun () ->
      let r = f () in
      let spans = Trace.finish () in
      (r, spans))

let test_span_nesting () =
  let (), spans =
    with_fake_trace (fun () ->
        Span.with_ ~name:"root" (fun () ->
            Span.with_ ~name:"a" (fun () -> Span.attr_int "k" 7);
            Span.with_ ~name:"b" (fun () -> ())))
  in
  match spans with
  | [ root ] ->
    Alcotest.(check string) "root name" "root" root.Span.name;
    Alcotest.(check (list string)) "children in execution order" [ "a"; "b" ]
      (List.map (fun (c : Span.t) -> c.Span.name) root.Span.children);
    (* clock readings: root opens at 0s, a at 1s..2s, b at 3s..4s, root
       closes at 5s; each with_ takes two readings. *)
    Alcotest.(check (float 1e-6)) "root start" 0.0 root.Span.start_us;
    Alcotest.(check (float 1e-6)) "root duration" 5e6 root.Span.dur_us;
    (match root.Span.children with
    | [ a; b ] ->
      Alcotest.(check (float 1e-6)) "a start" 1e6 a.Span.start_us;
      Alcotest.(check (float 1e-6)) "a duration" 1e6 a.Span.dur_us;
      Alcotest.(check (float 1e-6)) "b start" 3e6 b.Span.start_us;
      Alcotest.(check (list (pair string string))) "attr recorded"
        [ ("k", "7") ] a.Span.attrs
    | _ -> Alcotest.fail "expected two children")
  | _ -> Alcotest.fail "expected one root span"

let test_span_disabled_is_transparent () =
  Alcotest.(check bool) "recording off" false (Span.enabled ());
  let r = Span.with_ ~name:"ignored" (fun () -> 42) in
  Span.attr_int "nobody" 1;
  Alcotest.(check int) "value passed through" 42 r

let test_span_survives_exception () =
  let (), spans =
    with_fake_trace (fun () ->
        try Span.with_ ~name:"boom" (fun () -> failwith "x")
        with Failure _ -> ())
  in
  match spans with
  | [ sp ] ->
    Alcotest.(check string) "span closed" "boom" sp.Span.name;
    Alcotest.(check bool) "has duration" true (sp.Span.dur_us > 0.0)
  | _ -> Alcotest.fail "expected one root span"

let test_chrome_json () =
  let (), spans =
    with_fake_trace (fun () ->
        Span.with_ ~name:"outer" (fun () ->
            Span.with_ ~name:"inner" (fun () -> Span.attr_str "file" "c1")))
  in
  match Trace.to_chrome_json spans with
  | Jsonx.List events ->
    Alcotest.(check int) "one event per span" 2 (List.length events);
    List.iter
      (fun ev ->
        List.iter
          (fun field ->
            Alcotest.(check bool)
              (Printf.sprintf "event has %s" field)
              true
              (Jsonx.member field ev <> None))
          [ "name"; "ph"; "ts"; "dur"; "pid"; "tid" ];
        Alcotest.(check bool) "complete event" true
          (Jsonx.member "ph" ev = Some (Jsonx.String "X")))
      events;
    (* parents come first and timestamps are rebased to the first span *)
    (match events with
    | [ outer; inner ] ->
      Alcotest.(check bool) "outer first" true
        (Jsonx.member "name" outer = Some (Jsonx.String "outer"));
      Alcotest.(check bool) "outer ts rebased to 0" true
        (Jsonx.member "ts" outer = Some (Jsonx.Float 0.0));
      Alcotest.(check bool) "inner has args" true
        (Jsonx.member "args" inner <> None)
    | _ -> Alcotest.fail "expected two events")
  | _ -> Alcotest.fail "expected a JSON array"

let test_jsonx_rendering () =
  let doc =
    Jsonx.Obj
      [ ("a", Jsonx.Int 1);
        ("b", Jsonx.List [ Jsonx.Null; Jsonx.Bool true; Jsonx.String "x\"y\n" ]);
        ("c", Jsonx.Float 0.25);
        ("nan", Jsonx.Float Float.nan) ]
  in
  Alcotest.(check string) "compact rendering"
    {|{"a":1,"b":[null,true,"x\"y\n"],"c":0.25,"nan":"NaN"}|}
    (Jsonx.to_string ~compact:true doc)

(* Non-finite floats must survive a serialize/parse cycle: they are
   emitted as sentinel strings (JSON has no literal for them) and
   [to_float_opt] maps the sentinels back. A QoR record with a NaN
   metric used to come back unreadable because the old rendering
   collapsed the value to [null]. *)
let test_jsonx_nonfinite_roundtrip () =
  List.iter
    (fun f ->
      let rendered = Jsonx.to_string ~compact:true (Jsonx.Float f) in
      match Jsonx.parse rendered with
      | Error msg -> Alcotest.failf "%s failed to parse back: %s" rendered msg
      | Ok j ->
        (match Jsonx.to_float_opt j with
        | None -> Alcotest.failf "%s lost its float value" rendered
        | Some f' ->
          Alcotest.(check bool)
            (rendered ^ " round-trips bit-exactly")
            true
            (Int64.bits_of_float f = Int64.bits_of_float f')))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.25 ];
  (* plain strings that merely look numeric must not become floats *)
  Alcotest.(check bool) "ordinary string stays a string" true
    (Jsonx.to_float_opt (Jsonx.String "fast") = None)

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Metrics.percentile xs ~p:0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.5 (Metrics.percentile xs ~p:50.0);
  Alcotest.(check (float 1e-9)) "p90" 90.1 (Metrics.percentile xs ~p:90.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Metrics.percentile xs ~p:100.0);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Metrics.percentile [ 7.0 ] ~p:90.0)

let test_registry_basics () =
  let r = Metrics.create () in
  Metrics.set_gauge r "wl" 10.0;
  Metrics.set_gauge r "wl" 11.5;
  Metrics.observe ~bin_width:0.5 r "rate" 0.6;
  Metrics.observe r "rate" 1.4;
  Metrics.push_series r "curve" 1.0 0.9;
  Metrics.push_series r "curve" 2.0 0.8;
  Alcotest.(check (option (float 0.0))) "gauge keeps last" (Some 11.5)
    (Metrics.gauge_value r "wl");
  Alcotest.(check (list (float 1e-9))) "samples in order" [ 0.6; 1.4 ]
    (Metrics.hist_samples r "rate");
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "series in order"
    [ (1.0, 0.9); (2.0, 0.8) ]
    (Metrics.series_points r "curve");
  Alcotest.(check (list string)) "names sorted" [ "curve"; "rate"; "wl" ]
    (Metrics.names r)

let test_registry_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.set_gauge a "only_a" 4.0;
  Metrics.set_gauge a "g" 1.0;
  Metrics.set_gauge b "g" 2.0;
  Metrics.observe a "h" 1.0;
  Metrics.observe b "h" 3.0;
  Metrics.push_series a "s" 0.0 1.0;
  Metrics.push_series b "s" 1.0 2.0;
  let m = Metrics.merge a b in
  Alcotest.(check (option (float 0.0))) "left-only kept" (Some 4.0)
    (Metrics.gauge_value m "only_a");
  Alcotest.(check (option (float 0.0))) "gauge right wins" (Some 2.0)
    (Metrics.gauge_value m "g");
  Alcotest.(check (list (float 1e-9))) "histograms pool" [ 1.0; 3.0 ]
    (Metrics.hist_samples m "h");
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "series concatenate"
    [ (0.0, 1.0); (1.0, 2.0) ]
    (Metrics.series_points m "s");
  (* merge leaves its inputs untouched *)
  Alcotest.(check (list (float 1e-9))) "left input intact" [ 1.0 ]
    (Metrics.hist_samples a "h")

let test_global_gating () =
  Metrics.reset Metrics.global;
  Metrics.set_enabled false;
  Metrics.gauge "gated" 1.0;
  Alcotest.(check (option (float 0.0))) "disabled shorthand drops" None
    (Metrics.gauge_value Metrics.global "gated");
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset Metrics.global)
    (fun () ->
      Metrics.gauge "gated" 1.0;
      Alcotest.(check (option (float 0.0))) "enabled shorthand records" (Some 1.0)
        (Metrics.gauge_value Metrics.global "gated"))

(* The SA observer sees every plateau and cannot change the outcome. *)
let test_sa_observer () =
  let cost x = (x -. 3.0) *. (x -. 3.0) in
  let neighbor rng x = x +. Util.Rng.gaussian rng ~mean:0.0 ~stddev:0.5 in
  let run ?observer () =
    Sa.minimize ~rng:(Util.Rng.create 11) ~init:10.0 ~cost ~neighbor ?observer ()
  in
  let plateaus = ref [] in
  let observed = run ~observer:(fun p -> plateaus := p :: !plateaus) () in
  let plain = run () in
  Alcotest.(check (float 0.0)) "observer does not change the best" plain.Sa.best
    observed.Sa.best;
  Alcotest.(check int) "observer does not change the move count" plain.Sa.moves
    observed.Sa.moves;
  let ps = List.rev !plateaus in
  Alcotest.(check int) "one callback per plateau" observed.Sa.plateaus
    (List.length ps);
  Alcotest.(check (list int)) "plateau indices in order"
    (List.init (List.length ps) (fun i -> i))
    (List.map (fun p -> p.Sa.index) ps);
  List.iter
    (fun p ->
      let r = Sa.acceptance_rate p in
      Alcotest.(check bool) "acceptance rate in [0,1]" true (r >= 0.0 && r <= 1.0))
    ps;
  (match ps with
  | p0 :: (_ :: _ as rest) ->
    let last = List.nth rest (List.length rest - 1) in
    Alcotest.(check bool) "temperature cools" true
      (last.Sa.temperature < p0.Sa.temperature);
    Alcotest.(check int) "total moves accounted" observed.Sa.moves
      last.Sa.total_moves
  | _ -> Alcotest.fail "expected several plateaus")

(* Enabling the full telemetry stack must not change placements. *)
let test_place_determinism_under_tracing () =
  let flat = Netlist.Flat.elaborate (Circuitgen.Suite.fig1_design ()) in
  let plain = Hidap.place flat in
  Metrics.reset Metrics.global;
  Metrics.set_enabled true;
  Trace.start ();
  let traced, spans, n_metrics =
    Fun.protect
      ~finally:(fun () ->
        ignore (Trace.finish ());
        Metrics.set_enabled false;
        Metrics.reset Metrics.global)
      (fun () ->
        let r = Hidap.place flat in
        let spans = Trace.finish () in
        (r, spans, List.length (Metrics.names Metrics.global)))
  in
  Alcotest.(check bool) "identical placements" true
    (plain.Hidap.placements = traced.Hidap.placements);
  Alcotest.(check (float 0.0)) "identical lambda" plain.Hidap.lambda
    traced.Hidap.lambda;
  Alcotest.(check bool) "trace captured the flow" true
    (match spans with
    | [ root ] -> root.Span.name = "hidap.place" && root.Span.children <> []
    | _ -> false);
  Alcotest.(check bool) "at least 8 named metrics" true (n_metrics >= 8)

(* Perf counters are merged in task order at every join point, so the
   merged totals — and the placement itself — must be bit-identical for
   every job count (DESIGN.md §9/§12). Each run parses and elaborates
   the design too, so every registered counter is exercised. *)
let test_perf_merge_determinism () =
  let src = Hnl.Printer.to_string (Circuitgen.Suite.fig1_design ()) in
  let path = Filename.temp_file "fig1" ".hnl" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc src);
  let run jobs =
    let config = { Hidap.Config.default with Hidap.Config.jobs } in
    Obs.Perf.reset Obs.Perf.global;
    Obs.Perf.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Obs.Perf.set_enabled false)
      (fun () ->
        let design =
          match Hnl.Parser.parse_file path with
          | Ok d -> d
          | Error _ -> Alcotest.fail "fig1 HNL does not parse"
        in
        let flat = Netlist.Flat.elaborate design in
        let r = Hidap.place ~config flat in
        let counts = Obs.Perf.to_assoc Obs.Perf.global in
        Obs.Perf.reset Obs.Perf.global;
        (r, counts))
  in
  let base, counts1 = run 1 in
  List.iter
    (fun jobs ->
      let r, counts = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d placement identical to jobs=1" jobs)
        true
        (r.Hidap.placements = base.Hidap.placements);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "jobs=%d merged counters identical to jobs=1" jobs)
        counts1 counts)
    [ 2; 4 ];
  Sys.remove path;
  Alcotest.(check bool) "sa.moves counted" true
    (List.assoc "sa.moves" counts1 > 0);
  Alcotest.(check int) "moves split into accepts + rejects"
    (List.assoc "sa.moves" counts1)
    (List.assoc "sa.accepts" counts1 + List.assoc "sa.rejects" counts1);
  Alcotest.(check bool) "instances counted" true
    (List.assoc "floorplan.instances" counts1 > 0);
  Alcotest.(check int) "floorplan.sa_moves is the result's sa_moves"
    base.Hidap.sa_moves
    (List.assoc "floorplan.sa_moves" counts1);
  Alcotest.(check bool) "shape-curve combinations counted" true
    (List.assoc "shape_curves.combines" counts1 > 0
    && List.assoc "shape_curves.sa_moves" counts1 > 0);
  List.iter
    (fun (name, n) -> Alcotest.(check int) name n (List.assoc name counts1))
    [ ("hidap.places", 1); ("netlist.elaborations", 1); ("hnl.files_parsed", 1);
      ("hnl.bytes_parsed", String.length src); ("cellplace.runs", 0) ]

(* Telemetry must cost nothing per annealing move (DESIGN.md §12). The
   bound is on minor words, which — unlike wall-clock — a run allocates
   the same on every machine. Perf counters are flushed once per start
   from local tallies, so enabling them may add well under one word per
   hundred moves; the metrics layer works once per plateau (observer,
   histogram sample, curve point), so it may add a fixed amount per
   plateau but not a boxed word per move. *)
let test_telemetry_no_per_move_work () =
  let c = Option.get (Circuitgen.Suite.find "c1") in
  let flat = Netlist.Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params) in
  let config =
    { (Hidap.Config.with_lambda Hidap.Config.default 0.5) with Hidap.Config.jobs = 1 }
  in
  let die = Hidap.die_for flat ~config in
  let place ~perf ~metrics =
    Obs.Perf.reset Obs.Perf.global;
    Metrics.reset Metrics.global;
    Obs.Perf.set_enabled perf;
    Metrics.set_enabled metrics;
    Fun.protect
      ~finally:(fun () ->
        Obs.Perf.set_enabled false;
        Metrics.set_enabled false;
        Metrics.reset Metrics.global)
      (fun () ->
        let w0 = Gc.minor_words () in
        let r = Hidap.place ~config ~die flat in
        (r, Gc.minor_words () -. w0))
  in
  ignore (place ~perf:false ~metrics:false : Hidap.result * float);
  let off, off_words = place ~perf:false ~metrics:false in
  let perf, perf_words = place ~perf:true ~metrics:false in
  let moves = Obs.Perf.get Obs.Perf.global Obs.Perf.sa_moves in
  let plateaus = Obs.Perf.get Obs.Perf.global Obs.Perf.sa_plateaus in
  let both, both_words = place ~perf:true ~metrics:true in
  Alcotest.(check bool) "perf-on placement identical" true
    (perf.Hidap.placements = off.Hidap.placements);
  Alcotest.(check bool) "perf+metrics placement identical" true
    (both.Hidap.placements = off.Hidap.placements);
  Alcotest.(check bool) "moves and plateaus counted" true (moves > 0 && plateaus > 0);
  let perf_extra = perf_words -. off_words in
  let both_extra = both_words -. off_words in
  if perf_extra >= float_of_int (moves / 100) then
    Alcotest.failf "perf counters added %.0f minor words over %d moves (bound %d)"
      perf_extra moves (moves / 100);
  if both_extra >= float_of_int (300 * plateaus) then
    Alcotest.failf "perf + metrics added %.0f minor words over %d plateaus (bound %d)"
      both_extra plateaus (300 * plateaus)

(* The sampler's collapsed-stack output: root-first stacks joined with
   ';', "(idle)" for an empty stack, sorted buckets, positive counts. *)
let test_sampler_collapsed_stacks () =
  Alcotest.(check string) "empty stack is idle" "(idle)" (Obs.Sampler.collapse []);
  Alcotest.(check string) "innermost-first input collapses root-first"
    "root;mid;leaf"
    (Obs.Sampler.collapse [ "leaf"; "mid"; "root" ]);
  Alcotest.(check (list string)) "one line per bucket"
    [ "hidap.place;floorplan.run 41"; "(idle) 3" ]
    (Obs.Sampler.to_collapsed_lines
       [ ("hidap.place;floorplan.run", 41); ("(idle)", 3) ]);
  (* live run: sample deterministically via sample_now inside a nested
     span, plus stop's forced final sample outside any span *)
  Trace.start ();
  Obs.Sampler.start ~interval_ms:1000.0 ();
  let samples =
    Fun.protect
      ~finally:(fun () -> ignore (Trace.finish ()))
      (fun () ->
        Span.with_ ~name:"outer" (fun () ->
            Span.with_ ~name:"inner" (fun () -> Obs.Sampler.sample_now ()));
        Obs.Sampler.stop ())
  in
  Alcotest.(check bool) "sampler stopped" false (Obs.Sampler.running ());
  Alcotest.(check bool) "captured samples" true (samples <> []);
  let stacks = List.map fst samples in
  Alcotest.(check (list string)) "buckets sorted by stack"
    (List.sort compare stacks) stacks;
  List.iter
    (fun (stack, n) ->
      Alcotest.(check bool) (stack ^ ": positive count") true (n > 0);
      Alcotest.(check bool) (stack ^ ": no empty frames") true
        (stack <> ""
        && List.for_all
             (fun f -> f <> "")
             (String.split_on_char ';' stack)))
    samples;
  Alcotest.(check bool) "sample_now saw the nested stack" true
    (List.mem_assoc "outer;inner" samples)

(* Every progress line must parse back through Jsonx with the standard
   envelope and the documented per-event fields (DESIGN.md §12). *)
let test_stream_ndjson_roundtrip () =
  let path = Filename.temp_file "hidap_progress" ".ndjson" in
  Obs.Stream.enable ~heartbeat_s:0.0 ~close_on_disable:true (open_out path);
  Obs.Stream.run_start ~circuit:"c1" ~seed:42 ~jobs:2;
  Obs.Stream.stage_start "floorplan";
  Obs.Stream.sa_progress ~instance:1 ~instances:11 ~temperature:0.5
    ~best_cost:123.25 ~moves:1000 ~moves_per_s:2.5e5 ();
  Obs.Stream.stage_end "floorplan" ~dur_us:1.5e6 ~ok:true;
  Obs.Stream.checkpoint ~seq:3 ~file:"ckpt/000003.snap";
  Obs.Stream.degradation ~stage:"cellplace" ~reason:"budget exceeded";
  Obs.Stream.run_end ~status:"ok";
  Obs.Stream.disable ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let events =
    List.rev_map
      (fun line ->
        match Jsonx.parse line with
        | Error msg -> Alcotest.failf "unparseable line %S: %s" line msg
        | Ok j ->
          Alcotest.(check bool) "envelope schema" true
            (Jsonx.member "schema" j
            = Some (Jsonx.String Obs.Stream.schema));
          Alcotest.(check bool) "envelope version" true
            (Jsonx.member "version" j = Some (Jsonx.Int Obs.Stream.version));
          Alcotest.(check bool) "envelope timestamp" true
            (match Jsonx.member "t_us" j with
            | Some t -> Jsonx.to_float_opt t <> None
            | None -> false);
          (match Jsonx.member "event" j with
          | Some (Jsonx.String e) -> (e, j)
          | _ -> Alcotest.failf "line without event: %S" line))
      !lines
  in
  Alcotest.(check (list string)) "event order"
    [ "run-start"; "stage-start"; "sa-progress"; "stage-end"; "checkpoint";
      "degradation"; "run-end" ]
    (List.map fst events);
  let sa = List.assoc "sa-progress" events in
  List.iter
    (fun (field, v) ->
      Alcotest.(check bool) ("sa-progress " ^ field) true
        (Jsonx.member field sa = Some v))
    [ ("instance", Jsonx.Int 1); ("instances", Jsonx.Int 11);
      ("moves", Jsonx.Int 1000); ("best_cost", Jsonx.Float 123.25) ];
  Alcotest.(check bool) "run-end status" true
    (Jsonx.member "status" (List.assoc "run-end" events)
    = Some (Jsonx.String "ok"));
  Alcotest.(check bool) "stream detached" false (Obs.Stream.enabled ())

(* Emitters racing disable: disable must be idempotent, never raise,
   and never leave a torn line — every byte in the file parses as one
   complete NDJSON document, even when emits from several domains and
   the heartbeat were in flight while the sink closed (DESIGN.md §15
   relies on this: the serve worker disables the relay stream while a
   watcher fan-out still runs). *)
let test_stream_emit_disable_race () =
  for round = 1 to 8 do
    let path = Filename.temp_file "hidap_stream_race" ".ndjson" in
    Obs.Stream.enable ~heartbeat_s:0.001 ~close_on_disable:true (open_out path);
    Obs.Stream.run_start ~circuit:"race" ~seed:round ~jobs:4;
    let stop = Atomic.make false in
    let emitters =
      List.init 4 (fun d ->
          Domain.spawn (fun () ->
              let n = ref 0 in
              while not (Atomic.get stop) && !n < 50_000 do
                incr n;
                Obs.Stream.checkpoint ~seq:!n
                  ~file:(Printf.sprintf "d%d/%06d.snap" d !n)
              done))
    in
    (* disable in the middle of the barrage, then again: idempotent *)
    Unix.sleepf 0.002;
    (match Obs.Stream.disable () with
    | () -> ()
    | exception e ->
      Alcotest.failf "disable raised %s" (Printexc.to_string e));
    Obs.Stream.disable ();
    Atomic.set stop true;
    List.iter Domain.join emitters;
    Alcotest.(check bool) "stream detached" false (Obs.Stream.enabled ());
    (* late emits on the closed stream must be no-ops, not crashes *)
    Obs.Stream.checkpoint ~seq:0 ~file:"late.snap";
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Jsonx.parse line with
           | Ok j ->
             Alcotest.(check bool) "line has the stream envelope" true
               (Jsonx.member "schema" j = Some (Jsonx.String Obs.Stream.schema))
           | Error msg -> Alcotest.failf "torn line %S: %s" line msg
       done
     with End_of_file -> ());
    close_in ic;
    Sys.remove path
  done

let suite =
  [ ( "obs",
      [ Alcotest.test_case "span nesting and timing" `Quick test_span_nesting;
        Alcotest.test_case "disabled spans are transparent" `Quick
          test_span_disabled_is_transparent;
        Alcotest.test_case "span closed on exception" `Quick
          test_span_survives_exception;
        Alcotest.test_case "chrome trace export" `Quick test_chrome_json;
        Alcotest.test_case "jsonx rendering" `Quick test_jsonx_rendering;
        Alcotest.test_case "jsonx non-finite round-trip" `Quick
          test_jsonx_nonfinite_roundtrip;
        Alcotest.test_case "percentile math" `Quick test_percentiles;
        Alcotest.test_case "registry basics" `Quick test_registry_basics;
        Alcotest.test_case "registry merge" `Quick test_registry_merge;
        Alcotest.test_case "global registry gating" `Quick test_global_gating;
        Alcotest.test_case "sa plateau observer" `Quick test_sa_observer;
        Alcotest.test_case "sampler collapsed stacks" `Quick
          test_sampler_collapsed_stacks;
        Alcotest.test_case "progress stream NDJSON round-trip" `Quick
          test_stream_ndjson_roundtrip;
        Alcotest.test_case "emit/disable race leaves no torn lines" `Slow
          test_stream_emit_disable_race;
        Alcotest.test_case "telemetry does no per-move work" `Slow
          test_telemetry_no_per_move_work;
        Alcotest.test_case "perf counter merge determinism" `Slow
          test_perf_merge_determinism;
        Alcotest.test_case "tracing preserves determinism" `Slow
          test_place_determinism_under_tracing ] ) ]
