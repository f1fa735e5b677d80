(* The HiDaP benchmark: one workload per run.

     hidap_bench --workload NAME --seed N --seconds S --trace 0|1 --hidap EXE

   prints the workload's input sizes and every metric of the run by name
   and unit, then, as its last line, one JSON object with the keys
   correct, attempted, failed and metrics. --trace 0 gives the
   end-to-end metrics, --trace 1 the per-layer metrics (and writes the
   run's spans under .perfbench_out/). The exit code is 0 only when
   every output check passed. perfbench/run.py builds the program and
   this benchmark from source and runs it; perfbench/README.md says what
   each metric means. *)

open Common

type workload = {
  wname : string;
  why : string;
  run : hidap:string -> seed:int -> seconds:float -> trace:bool -> outcome;
}

(* Every operation is short (2 s at most) so that a run holds enough of
   them for its fastest one to be steady; README.md says why, and why
   no workload runs the flow on two domains. *)
let workloads =
  [ { wname = "place-c1-serial";
      why =
        "HiDaP on c1 at lambda 0.5, one domain: annealing 11 floorplan instances is ~98% \
         of the time; the single-threaded baseline for SA and floorplan work";
      run = (fun ~hidap:_ -> Wl_place.place_c1_serial) };
    { wname = "ingest-eval-suite";
      why =
        "c1, c5, c7, c8 through HNL, elaboration and evaluation with IndEDA packing: no \
         annealing, so SA-side changes predict no change";
      run = (fun ~hidap:_ -> Wl_ingest.run) };
    { wname = "serve-fig1-closed";
      why =
        "hidap serve with 2 workers and 2 closed-loop clients on fig1 jobs: the only \
         workload through the daemon, fork and checkpoints";
      run = (fun ~hidap -> Wl_serve.run ~hidap) } ]

(* ---- BENCHMARK.json -------------------------------------------------- *)

let spec_json () =
  let open Obs.Jsonx in
  let metric ?(bound = true) (m : metric) =
    Obj
      ([ ("name", String m.name); ("unit", String m.unit_);
         ("better", String (match m.better with Lower -> "lower" | Higher -> "higher")) ]
      @ if bound then [ ("bound", Float m.bound) ] else [])
  in
  Obj
    [ ("command", List [ String "python3"; String "perfbench/run.py" ]);
      ("paths", List [ String "perfbench" ]);
      ("run_seconds", Int 20);
      ( "workloads",
        List (List.map (fun w -> Obj [ ("name", String w.wname); ("why", String w.why) ]) workloads)
      );
      ("end_to_end", List (List.map metric e2e));
      ("per_layer", List (List.map (metric ~bound:false) per_layer)) ]

(* ---- the result ------------------------------------------------------- *)

let number v = Printf.sprintf "%.17g" v

let report ~workload ~seed ~seconds ~trace (o : outcome) =
  Printf.printf "workload %s seed %d seconds %g trace %d\n" workload seed seconds
    (if trace then 1 else 0);
  Printf.printf "env ocaml %s recommended_domain_count %d\n" Sys.ocaml_version
    (Domain.recommended_domain_count ());
  Printf.printf "input %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o.sizes));
  let table = if trace then per_layer else e2e in
  List.iter
    (fun (m : metric) ->
      Printf.printf "metric %-26s %14.6g %s\n" m.name (List.assoc m.name o.metrics) m.unit_)
    table;
  if not trace then
    List.iter
      (fun (name, unit_) ->
        Printf.printf "metric %-26s %14.6g %s\n" name (List.assoc name o.metrics) unit_)
      printed_only;
  List.iter print_endline o.notes;
  let attempted = Atomic.get attempted and failed = Atomic.get failed in
  Printf.printf "failed_frac %g (%d of %d operations)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (m : metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (number (List.assoc m.name o.metrics))
              m.unit_)
          table));
  failed = 0

let write_spans ~workload ~seed =
  Serve.Job.mkdir_p Wl_serve.out_dir;
  let path =
    Filename.concat Wl_serve.out_dir (Printf.sprintf "spans-%s-seed%d.json" workload seed)
  in
  let roots =
    List.stable_sort
      (fun (a : Obs.Span.t) (b : Obs.Span.t) -> compare a.start_us b.start_us)
      (main.spans @ sweep.spans)
  in
  Obs.Trace.write_chrome_file path roots;
  Printf.printf "spans %s\n" path

(* ---- command line ------------------------------------------------------ *)

let refused_env = [ "HIDAP_JOBS"; "HIDAP_FAULT"; "HIDAP_BUDGET"; "HIDAP_BENCH_FAST" ]

let usage =
  "hidap_bench --workload NAME --seed N --seconds S --trace 0|1 --hidap EXE\n\
   hidap_bench --selftest --seed N\n\
   hidap_bench --write-spec FILE"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let hidap = ref "" and spec = ref "" and selftest = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured region");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--hidap", Arg.Set_string hidap, "EXE the hidap command-line program (serve)");
      ("--write-spec", Arg.Set_string spec, "FILE write BENCHMARK.json and exit");
      ("--selftest", Arg.Set selftest, " check the sweep is identical at jobs 1 and 2") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (match List.filter (fun v -> Sys.getenv_opt v <> None) refused_env with
  | [] -> ()
  | set ->
    Printf.eprintf "hidap_bench: refusing to run with %s set\n" (String.concat ", " set);
    exit 2);
  if !spec <> "" then begin
    Obs.Jsonx.write_file !spec (spec_json ());
    exit 0
  end;
  if !selftest then begin
    Wl_place.selftest ~seed:!seed;
    Printf.printf "selftest: %d checks, %d failed\n" (Atomic.get attempted) (Atomic.get failed);
    exit (if Atomic.get failed = 0 then 0 else 1)
  end;
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "hidap_bench: unknown workload %S\n%s\n" !workload usage;
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let trace = !trace = 1 in
  match w.run ~hidap:!hidap ~seed:!seed ~seconds:!seconds ~trace with
  | o ->
    if trace then write_spans ~workload:w.wname ~seed:!seed;
    exit (if report ~workload:w.wname ~seed:!seed ~seconds:!seconds ~trace o then 0 else 1)
  | exception e ->
    Printf.eprintf "hidap_bench: %s failed: %s\n" w.wname (Printexc.to_string e);
    exit 2
