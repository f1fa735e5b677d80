(* Trace a full HiDaP run: place suite circuit c1' with the span
   recorder, the metrics registry and the perf counters on, then print
   the stage tree and the per-level SA convergence telemetry, and
   export both as JSON.

   Run with: dune exec examples/trace_flow.exe

   Output files (written to the current directory):
     trace_c1.json   - Chrome trace (load in chrome://tracing or Perfetto)
     metrics_c1.json - metrics document (perf counters, gauges, histograms,
                       series)

   The same instrumentation backs `hidap place --trace/--metrics/--profile`;
   this example shows how to drive it from the library API. *)

let () =
  let c =
    match Circuitgen.Suite.find "c1" with Some c -> c | None -> assert false
  in
  let flat =
    Netlist.Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params)
  in

  (* 1. Run the flow instrumented. The sinks are global and off by
     default, so library code pays nothing outside this call; inside it
     the stages instrument themselves, and it returns the completed
     span forest with the flow's result. *)
  let result, spans = Obs.Trace.instrumented (fun () -> Hidap.place flat) in

  Format.printf "placed %d macros on c1' (lambda=%.1f)@.@."
    (List.length result.Hidap.placements)
    result.Hidap.lambda;

  (* 2. Human-readable stage tree (what --profile prints to stderr). *)
  print_string (Obs.Trace.summary spans);

  (* 3. SA convergence telemetry recorded by the plateau observer. *)
  Format.printf "@.SA acceptance by recursion level:@.";
  List.iter
    (fun name ->
      let samples = Obs.Metrics.hist_samples Obs.Metrics.global name in
      let prefix = "sa.acceptance.level" in
      if
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix
        && samples <> []
      then
        Format.printf "  %s: %d plateaus, mean %.3f, p90 %.3f@." name
          (List.length samples) (Util.Stat.mean samples)
          (Obs.Metrics.percentile samples ~p:90.0))
    (Obs.Metrics.names Obs.Metrics.global);

  (* 4. Export both views as JSON. *)
  Obs.Trace.write_chrome_file "trace_c1.json" spans;
  Obs.Jsonx.write_file "metrics_c1.json"
    (Obs.Metrics.to_json ~counters:Obs.Perf.global Obs.Metrics.global);
  Format.printf "@.wrote trace_c1.json and metrics_c1.json@."
