(* Trace a full HiDaP run: place suite circuit c3' with the span
   recorder and the telemetry registry on, then print the stage tree
   and the per-level SA convergence telemetry, and export both as
   JSON. c3's floorplan instances of 6, 7 and 11 blocks
   anneal (instances of up to 5 blocks are solved exactly, with no
   plateau to report).

   Run with: dune exec examples/trace_flow.exe

   Output files (written to the current directory):
     trace_c3.json   - Chrome trace (load in chrome://tracing or Perfetto)
     metrics_c3.json - metrics document (perf counters, gauges, series)

   The same instrumentation backs `hidap place --trace/--metrics/--profile`;
   this example shows how to drive it from the library API. *)

let () =
  let c =
    match Circuitgen.Suite.find "c3" with Some c -> c | None -> assert false
  in
  let flat =
    Netlist.Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params)
  in

  (* 1. Run the flow instrumented. The sinks are global and off by
     default, so library code pays nothing outside this call; inside it
     the stages instrument themselves, and it returns the completed
     span forest with the flow's result. *)
  let result, spans = Obs.Trace.instrumented (fun () -> Hidap.place flat) in

  Format.printf "placed %d macros on c3' (lambda=%.1f)@.@."
    (List.length result.Hidap.placements)
    result.Hidap.lambda;

  (* 2. Human-readable stage tree (what --profile prints to stderr). *)
  print_string (Obs.Trace.summary spans);

  (* 3. SA convergence telemetry recorded by the plateau observer: one
     [sa.curve.level<d>] point (total moves, acceptance rate) per
     plateau of every annealing start at recursion depth d. *)
  Format.printf "@.SA acceptance by recursion level:@.";
  let prefix = "sa.curve.level" in
  List.iter
    (fun name ->
      if String.starts_with ~prefix name then begin
        let rates = List.map snd (Obs.Perf.series_points Obs.Perf.global name) in
        Format.printf "  %s: %d plateaus, mean acceptance %.3f@." name
          (List.length rates) (Util.Stat.mean rates)
      end)
    (Obs.Perf.names Obs.Perf.global);

  (* 4. Export both views as JSON. *)
  Obs.Trace.write_chrome_file "trace_c3.json" spans;
  Obs.Jsonx.write_file "metrics_c3.json"
    (Obs.Perf.to_json Obs.Perf.global);
  Format.printf "@.wrote trace_c3.json and metrics_c3.json@."
