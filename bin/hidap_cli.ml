(* hidap — command-line front end.

   Subcommands:
     stats  FILE.hnl           netlist statistics and abstraction sizes
     place  FILE.hnl           run the HiDaP flow, print macro placements
     eval   (FILE.hnl | -c N)  compare IndEDA / HiDaP, WL vs the best known
     check  (FILE.hnl | -c N)  validate a design (optionally audit its placement)
     gen    -c NAME -o FILE    emit a synthetic suite circuit as HNL
     view   FILE.hnl           evaluate and render a saved placement
     report LEDGER|DIR         self-contained HTML report from QoR ledgers
     explain RUN.json          attribute a run's cost to terms/blocks/pairs
     diff   A.json B.json      compare two runs term by term, macro by macro
     bench                     run suite circuits, gate against baselines
     ckpt   ls|inspect|gc DIR  inspect and maintain checkpoint directories *)

open Cmdliner

(* Distinct exit codes so CI and scripts can tell a bad invocation from
   a bad input, a degraded-but-emitted result, and an illegal
   placement. Listed under EXIT STATUS in --help. *)
let exit_usage = 2
let exit_invalid = 3
let exit_budget = 4
let exit_audit = 5
let exit_interrupted = 6
let exit_daemon = 7

let exits =
  Cmd.Exit.info exit_usage
    ~doc:"on usage errors caught by hidap itself: conflicting or missing inputs, \
          an unknown suite circuit, malformed $(b,HIDAP_FAULT) / $(b,HIDAP_BUDGET) \
          / $(b,--budget) syntax, or an unwritable output path."
  :: Cmd.Exit.info exit_invalid
       ~doc:"when the input design fails to parse or validate; diagnostics are \
             printed to stderr as $(i,file:line:col: message)."
  :: Cmd.Exit.info exit_budget
       ~doc:"when a stage wall-clock budget expired and the flow degraded to a \
             stage fallback; the (degraded) result is still emitted."
  :: Cmd.Exit.info exit_audit
       ~doc:"when the placement legality audit fails (overlaps, out-of-die or \
             footprint-inconsistent macros)."
  :: Cmd.Exit.info exit_interrupted
       ~doc:"when SIGINT/SIGTERM interrupted a $(b,place) run that had \
             $(b,--checkpoint-dir): a final snapshot was written first, so \
             re-running with $(b,--resume) continues bit-identically. Also \
             used by $(b,submit) for a job parked by a daemon drain."
  :: Cmd.Exit.info exit_daemon
       ~doc:"when the daemon conversation broke: $(b,submit)/$(b,jobs) could \
             not connect, or the daemon died mid-conversation (connection \
             refused or EOF). Also used by $(b,serve) when a live daemon \
             already answers on the socket path."
  :: Cmd.Exit.defaults

(* Raised (and caught around the telemetry bracket) when a signal
   cancelled a checkpointed run: unwinds so --trace/--metrics are
   still written, then exits with [exit_interrupted]. *)
exception Interrupted

let die_usage fmt =
  Format.kasprintf
    (fun s ->
      Format.eprintf "hidap: %s@." s;
      exit exit_usage)
    fmt

(* Validator diagnostics carry no file position; prefix the file so the
   report stays greppable alongside parser diagnostics. *)
let print_diag ?path d =
  match path with
  | Some p -> Format.eprintf "%s: %a@." p Guard.Diag.pp d
  | None -> Format.eprintf "%a@." Guard.Diag.pp d

let source_of ~file ~circuit =
  match (file, circuit) with
  | Some path, None -> Qor.Run.File path
  | None, Some name -> Qor.Run.Circuit name
  | Some _, Some _ | None, None -> die_usage "give exactly one of FILE.hnl or --circuit"

(* Load through [Qor.Run]'s front door, printing every diagnostic to
   stderr, a stop's included. *)
let load_input ?(config = Hidap.Config.default) ~strict source =
  let path = match source with Qor.Run.File p -> Some p | _ -> None in
  let input = Qor.Run.load ~strict ~config source in
  (match input with
  | Ok i -> List.iter (print_diag ?path) i.Qor.Run.diags
  | Error (Qor.Run.Invalid_design diags | Qor.Run.Invalid_netlist diags) ->
    List.iter (print_diag ?path) diags
  | Error (Qor.Run.Unknown_circuit name) ->
    Format.eprintf "hidap: unknown suite circuit %s (c1..c8)@." name
  | Error (Qor.Run.Parse_error { Hnl.Parser.line; col; message }) ->
    Format.eprintf "%s:%d:%d: error: %s@." (Option.value path ~default:"-") line col message
  | Error (Qor.Run.Elaboration msg) ->
    Format.eprintf "hidap: elaboration rejected the design: %s@." msg);
  input

(* The exit status of a stopped load, after its summary line. *)
let stop_code = function
  | Qor.Run.Unknown_circuit _ -> exit_usage
  | Qor.Run.Invalid_design diags ->
    let n = List.length (Guard.Validate.errors diags) in
    Format.eprintf "hidap: invalid design: %d error%s@." n (if n = 1 then "" else "s");
    exit_invalid
  | Qor.Run.Parse_error _ | Qor.Run.Elaboration _ | Qor.Run.Invalid_netlist _ ->
    exit_invalid

let input_or_exit ?config ~strict source =
  match load_input ?config ~strict source with
  | Ok input -> input
  | Error stop -> exit (stop_code stop)

let print_degradations =
  List.iter (fun e -> Format.eprintf "degraded: %a@." Guard.Supervisor.pp_entry e)

(* [Guard.Audit] takes its placements as (fid, rect, orient) tuples. *)
let audit_result ~flat (r : Hidap.result) =
  Guard.Audit.run ~flat ~die:r.Hidap.die
    ~placements:
      (List.map
         (fun (p : Hidap.macro_placement) -> (p.Hidap.fid, p.Hidap.rect, p.Hidap.orient))
         r.Hidap.placements)

(* Fault specs come from HIDAP_FAULT; budgets merge HIDAP_BUDGET with
   the --budget flag (flag entries win for a stage listed in both). *)
let supervision ~budget =
  let faults =
    match Guard.Fault.of_env () with Ok s -> s | Error msg -> die_usage "%s" msg
  in
  let env_budgets =
    match Guard.Budget.of_env () with Ok b -> b | Error msg -> die_usage "%s" msg
  in
  let flag_budgets =
    match budget with
    | None -> []
    | Some s ->
      (match Guard.Budget.parse s with Ok b -> b | Error msg -> die_usage "%s" msg)
  in
  (faults, env_budgets @ flag_budgets)

(* ---- common args -------------------------------------------------- *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.hnl" ~doc:"HNL netlist file.")

let circuit_arg =
  Arg.(value & opt (some string) None & info [ "c"; "circuit" ] ~docv:"NAME"
         ~doc:"Synthetic suite circuit (c1..c8).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed for the flow.")

let lambda_arg =
  Arg.(value & opt (some float) None & info [ "lambda" ]
         ~doc:"Fix the block/macro dataflow blend instead of sweeping 0.2/0.5/0.8.")

let svg_arg =
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"OUT.svg"
         ~doc:"Write the floorplan as SVG.")

let jobs_arg =
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the annealing starts and the lambda sweep \
               (0 = one per recommended core). A value above the recommended \
               domain count is clamped to it, with a warning. The placement is \
               bit-identical for every value.")

let strict_arg =
  Arg.(value & flag & info [ "strict" ]
         ~doc:"Escalate validator warnings to errors: a design that parses but \
               needed repair (dangling bindings, duplicate names, clamped \
               areas, macros larger than the die) is rejected instead of \
               silently fixed.")

let budget_arg =
  Arg.(value & opt (some string) None & info [ "budget" ] ~docv:"STAGE=SECONDS,..."
         ~doc:"Per-stage wall-clock budgets (stages: floorplan, flipping, \
               cellplace). A stage past its budget degrades to its fallback \
               and the run exits with the budget-exceeded status. Merged with \
               $(b,HIDAP_BUDGET).")

(* The job count a command runs with: [--jobs], else [HIDAP_JOBS], else
   one per recommended domain, clamped to the recommended domain count
   (more domains than cores only adds contention; placements are
   identical at every count, so only stderr tells, once per process). *)
let clamp_warned = ref false

let resolve_jobs jobs =
  let j = if jobs <= 0 then Parexec.default_jobs () else jobs in
  let cap = Domain.recommended_domain_count () in
  if j <= cap then j
  else begin
    if not !clamp_warned then begin
      clamp_warned := true;
      Format.eprintf
        "hidap: warning: %d jobs requested, clamped to the %d recommended domains@." j cap
    end;
    cap
  end

let config_of ~seed ~lambda ~jobs =
  let config =
    { Hidap.Config.default with Hidap.Config.seed; jobs = resolve_jobs jobs }
  in
  match lambda with
  | Some l -> Hidap.Config.with_lambda config l
  | None -> config

(* ---- observability ------------------------------------------------ *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT.json"
         ~doc:"Write a Chrome-trace JSON of the run (open in chrome://tracing or \
               https://ui.perfetto.dev).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"OUT.json"
         ~doc:"Write flow metrics as JSON: the run's counters (the values \
               $(b,--perf-out) reports), gauges and series.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Print the stage-tree timing summary to stderr.")

let qor_arg =
  Arg.(value & opt (some string) None & info [ "qor" ] ~docv:"OUT.json"
         ~doc:"Write a QoR ledger record of the run (render with 'hidap report').")

let profile_out_arg =
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"OUT.folded"
         ~doc:"Write the run's collapsed-stack profile (flamegraph.pl / \
               speedscope / inferno input): the self time of every span \
               stack in microseconds, derived from the recorded spans. \
               Implies span recording; the trace itself is only written \
               when $(b,--trace) is also given.")

let perf_out_arg =
  Arg.(value & opt (some string) None & info [ "perf-out" ] ~docv:"OUT.json"
         ~doc:"Write the run's counters (SA moves/accepts/rejects/reheats, \
               cost evaluations, floorplan instances and the per-stage \
               counters; the same values as the $(b,--metrics) counters), \
               pool utilization and throughput as JSON. The merged counters \
               are bit-identical for every --jobs value.")

let progress_file_arg =
  Arg.(value & opt (some string) None & info [ "progress-file" ] ~docv:"OUT.ndjson"
         ~doc:"Stream live progress events (NDJSON, schema hidap-progress v2: \
               heartbeat, stage start/end, per-instance SA progress with \
               cost-term breakdowns, checkpoints, degradations) to a file. \
               See DESIGN.md section 12.")

let progress_fd_arg =
  Arg.(value & opt (some int) None & info [ "progress-fd" ] ~docv:"N"
         ~doc:"Stream the same progress events to an already-open file \
               descriptor (for wrappers: $(b,hidap place ... --progress-fd 3 \
               3>&1)). Mutually exclusive with $(b,--progress-file).")

(* Telemetry output paths are opened before the run starts: a typo in
   --trace/--metrics/--qor fails fast instead of silently discarding
   the telemetry of a completed (possibly long) run. *)
let open_output ~what path =
  match open_out path with
  | oc -> (path, oc)
  | exception Sys_error msg ->
    print_diag
      (Guard.Diag.error ~code:"bad-output-path" ~stage:"cli"
         (Printf.sprintf "cannot open %s output: %s" what msg));
    exit exit_usage

let write_output what out json =
  match out with
  | None -> ()
  | Some (path, oc) ->
    output_string oc (Obs.Jsonx.to_string json);
    output_char oc '\n';
    close_out oc;
    Format.eprintf "wrote %s %s@." what path

(* --progress-fd receives an inherited descriptor number; Unix.file_descr
   is abstractly an int on Unix, which the standard library provides no
   blessed conversion for. *)
let descr_of_int (n : int) : Unix.file_descr = Obj.magic n

let open_progress ~progress_file ~progress_fd =
  match (progress_file, progress_fd) with
  | Some _, Some _ -> die_usage "give at most one of --progress-file and --progress-fd"
  | Some path, None ->
    let _, oc = open_output ~what:"progress" path in
    Some (oc, true)
  | None, Some fd ->
    if fd < 0 then die_usage "--progress-fd must be a non-negative descriptor";
    Some (Unix.out_channel_of_descr (descr_of_int fd), false)
  | None, None -> None

(* Perf/pool/profile assembly shared by --perf-out and the QoR record.
   [wall_s] is the placement wall-clock; moves/sec divides the
   deterministic sa.moves counter by it. *)
let perf_info_of ~wall_s ~profile =
  let counters = Obs.Perf.to_assoc Obs.Perf.global in
  let moves = Obs.Perf.get Obs.Perf.global Obs.Perf.sa_moves in
  let pool = Parexec.pool_stats () in
  { Qor.Record.perf_counters = counters;
    perf_moves_per_s = (if wall_s > 0.0 then float_of_int moves /. wall_s else 0.0);
    perf_wall_s = wall_s;
    pool_workers =
      Array.to_list
        (Array.map
           (fun (w : Parexec.worker_stats) ->
             { Qor.Record.pw_tasks = w.Parexec.tasks;
               pw_steals = w.Parexec.steals;
               pw_busy_us = w.Parexec.busy_us })
           pool.Parexec.workers);
    pool_wall_us = pool.Parexec.wall_us;
    pool_maps = pool.Parexec.maps;
    profile }

let perf_out_json (p : Qor.Record.perf_info) =
  Obs.Jsonx.Obj
    [ ("schema", Obs.Jsonx.String "hidap-perf");
      ("version", Obs.Jsonx.Int 1);
      ("perf", Qor.Record.perf_info_json p) ]

(* The --trace/--metrics/--profile outputs of an instrumented run, as
   an [Obs.Trace.instrumented] finish hook: called with the spans on
   every exit path, while the global registries hold the run's values. *)
let obs_outputs ~trace ~metrics ~profile =
  let trace_out = Option.map (open_output ~what:"trace") trace in
  let metrics_out = Option.map (open_output ~what:"metrics") metrics in
  fun spans ->
    write_output "trace" trace_out (Obs.Trace.to_chrome_json spans);
    write_output "metrics" metrics_out
      (Obs.Perf.to_json Obs.Perf.global);
    if profile then prerr_string (Obs.Trace.summary spans)

(* ---- stats -------------------------------------------------------- *)

let stats_cmd =
  let run file circuit strict dot_hier dot_gseq =
    let flat = (input_or_exit ~strict (source_of ~file ~circuit)).Qor.Run.flat in
    Format.printf "%a@." Netlist.Stats.pp (Netlist.Stats.compute flat);
    let gseq = Seqgraph.build flat in
    Format.printf "%a@." Seqgraph.pp_summary gseq;
    let tree = Hier.Tree.build flat in
    let dc =
      Hier.Decluster.run tree ~nh:(Hier.Tree.root tree) ~open_frac:0.4 ~min_frac:0.01
    in
    Format.printf "top-level declustering: %d blocks, %d glue nodes@."
      (List.length dc.Hier.Decluster.hcb)
      (List.length dc.Hier.Decluster.hcg);
    (match dot_hier with
    | Some path ->
      Viz.Dot.write_file path (Viz.Dot.hierarchy tree ());
      Format.printf "wrote %s@." path
    | None -> ());
    match dot_gseq with
    | Some path ->
      Viz.Dot.write_file path (Viz.Dot.seqgraph gseq ());
      Format.printf "wrote %s@." path
    | None -> ()
  in
  let dot_hier_arg =
    Arg.(value & opt (some string) None & info [ "dot-hier" ] ~docv:"OUT.dot"
           ~doc:"Write the hierarchy tree as Graphviz DOT.")
  in
  let dot_gseq_arg =
    Arg.(value & opt (some string) None & info [ "dot-gseq" ] ~docv:"OUT.dot"
           ~doc:"Write the sequential graph as Graphviz DOT.")
  in
  Cmd.v (Cmd.info "stats" ~doc:"Netlist statistics and abstraction sizes" ~exits)
    Term.(const run $ file_arg $ circuit_arg $ strict_arg $ dot_hier_arg $ dot_gseq_arg)

(* ---- place -------------------------------------------------------- *)

let place_cmd =
  let run file circuit seed lambda jobs svg ascii save strict budget trace metrics
      profile qor profile_out perf_out progress_file progress_fd ckpt_dir resume =
    if resume && ckpt_dir = None then die_usage "--resume requires --checkpoint-dir";
    (* SIGINT/SIGTERM on a checkpointed run: ask the flow to stop at
       its next budget poll instead of dying mid-write; the handler
       below snapshots and exits with the documented code. Without a
       checkpoint dir the default signal behaviour is kept. *)
    Guard.Budget.clear_cancel ();
    if ckpt_dir <> None then begin
      let on_signal _ = Guard.Budget.request_cancel () in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
    end;
    let faults, budgets = supervision ~budget in
    let qor_out = Option.map (open_output ~what:"qor") qor in
    let profile_out = Option.map (open_output ~what:"profile") profile_out in
    let perf_out = Option.map (open_output ~what:"perf") perf_out in
    let progress = open_progress ~progress_file ~progress_fd in
    (* The perf section goes to --perf-out and the QoR record; the
       counters it reports are the ones every instrumented run enables,
       so the outputs agree regardless of which one asked. Its profile
       is the one --profile-out writes, and empty without it. *)
    let want_perf = Option.is_some perf_out || Option.is_some qor_out in
    let write_obs = obs_outputs ~trace ~metrics ~profile in
    let captured = ref None in
    let on_finish spans =
      write_obs spans;
      let profile =
        match profile_out with
        | None -> []
        | Some (path, oc) ->
          let profile = Obs.Trace.collapsed spans in
          List.iter (fun (stack, us) -> Printf.fprintf oc "%s %d\n" stack us) profile;
          close_out oc;
          Format.eprintf "wrote profile %s@." path;
          profile
      in
      match !captured with
      | None -> ()
      | Some (name, flat, config, (p : Qor.Run.placed), wall_s) ->
        let perf = if want_perf then Some (perf_info_of ~wall_s ~profile) else None in
        Option.iter (fun perf -> write_output "perf" perf_out (perf_out_json perf)) perf;
        if Option.is_some qor_out then
          let record =
            Qor.Record.of_run ~circuit:name ~flat ~config ~spans
              ?ckpt:p.Qor.Run.ckpt_summary ?perf (Option.get p.Qor.Run.run)
          in
          write_output "qor" qor_out (Qor.Record.to_json record)
    in
    (* The exit happens after the instrumented run unwinds so requested
       telemetry outputs are written even for degraded or audit-failing
       runs. *)
    let body () =
      let config =
        { (config_of ~seed ~lambda ~jobs) with Hidap.Config.faults; budgets }
      in
      match load_input ~strict ~config (source_of ~file ~circuit) with
      | Error stop -> stop_code stop
      | Ok input ->
        let name = input.Qor.Run.name and flat = input.Qor.Run.flat in
        (match progress with
        | Some (oc, close_on_disable) -> Obs.Stream.enable ~close_on_disable oc
        | None -> ());
        Obs.Stream.run_start ~circuit:name ~seed:config.Hidap.Config.seed
          ~jobs:config.Hidap.Config.jobs;
        Parexec.reset_pool_stats ();
        let t0 = Obs.Clock.now_s () in
        let ckpt =
          Option.map
            (fun dir -> { Qor.Run.dir; resume; on_save = ignore })
            ckpt_dir
        in
        let on_resume f =
          Format.eprintf "checkpoint: resuming from %s/%s@." (Option.get ckpt_dir) f
        in
        let placed =
          match
            Qor.Run.place ~config ?ckpt ~on_resume ~measure:(Option.is_some qor_out)
              input
          with
          | Ok p -> p
          | Error d ->
            print_diag d;
            exit exit_invalid
          | exception Guard.Budget.Cancelled _ ->
            (* The signal handler requested a stop and the final
               snapshot is written: unwind to the interrupted exit
               code, and --resume continues bit-identically. *)
            Format.eprintf
              "hidap: interrupted; final checkpoint written, continue with \
               --resume@.";
            Obs.Stream.run_end ~status:"interrupted";
            raise Interrupted
        in
        let r = placed.Qor.Run.result and degradations = placed.Qor.Run.degradations in
        Option.iter
          (fun (sm : Qor.Record.ckpt_info) ->
            Format.eprintf "checkpoint: %d snapshot(s) written, %d instance(s) reused@."
              sm.Qor.Record.snapshots_written sm.Qor.Record.instances_reused)
          placed.Qor.Run.ckpt_summary;
        let wall_s = Obs.Clock.now_s () -. t0 in
        captured := Some (name, flat, config, placed, wall_s);
        print_degradations degradations;
        Format.printf "placed %d macros in %.2fs (lambda %.2f, overlap %.2f)@."
          (List.length r.Hidap.placements)
          wall_s r.Hidap.lambda (Hidap.overlap_area r);
        List.iter
          (fun (p : Hidap.macro_placement) ->
            Format.printf "%s %.3f %.3f %.3f %.3f %s@."
              flat.Netlist.Flat.nodes.(p.Hidap.fid).Netlist.Flat.path p.Hidap.rect.Geom.Rect.x
              p.Hidap.rect.Geom.Rect.y p.Hidap.rect.Geom.Rect.w p.Hidap.rect.Geom.Rect.h
              (Geom.Orientation.to_string p.Hidap.orient))
          r.Hidap.placements;
        if ascii then
          print_string
            (Viz.Ascii.floorplan ~die:r.Hidap.die
               ~rects:
                 (List.map (fun (p : Hidap.macro_placement) -> ("M", p.Hidap.rect)) r.Hidap.placements)
               ~width:64 ~height:28 ());
        (match save with
        | Some path ->
          Hidap.Placement_io.save path
            (Hidap.Placement_io.make ~flat ~die:r.Hidap.die ~placements:r.Hidap.placements);
          Format.printf "saved placement to %s@." path
        | None -> ());
        (match svg with
        | Some path ->
          let rects =
            List.map
              (fun (p : Hidap.macro_placement) ->
                ( flat.Netlist.Flat.nodes.(p.Hidap.fid).Netlist.Flat.base,
                  p.Hidap.rect, Viz.Svg.macro_style ))
              r.Hidap.placements
          in
          Viz.Svg.write_file path (Viz.Svg.floorplan ~die:r.Hidap.die ~rects ());
          Format.printf "wrote %s@." path
        | None -> ());
        let audit = audit_result ~flat r in
        let audit_ok = Guard.Audit.ok audit in
        Obs.Stream.run_end
          ~status:
            (if not audit_ok then "failed"
             else if degradations <> [] then "degraded"
             else "ok");
        Obs.Stream.disable ();
        if not audit_ok then begin
          Guard.Audit.pp_summary Format.err_formatter audit;
          exit_audit
        end
        else if Guard.Supervisor.budget_degraded degradations then exit_budget
        else 0
    in
    let run_body () =
      if trace <> None || metrics <> None || profile || want_perf
         || Option.is_some profile_out
      then
        fst (Obs.Trace.instrumented ~on_finish body)
      else body ()
    in
    (* The stream must be flushed and closed on every path — normal,
       interrupted, or exceptional — so an NDJSON consumer never sees
       a torn tail. [disable] is idempotent, so the extra call on the
       normal path (which already disabled) is free. *)
    let code =
      match run_body () with
      | code -> code
      | exception Interrupted ->
        Obs.Stream.disable ();
        exit_interrupted
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Obs.Stream.disable ();
        Printexc.raise_with_backtrace e bt
    in
    Obs.Stream.disable ();
    if code <> 0 then exit code
  in
  let ascii_arg =
    Arg.(value & flag & info [ "ascii" ] ~doc:"Print an ASCII rendering of the floorplan.")
  in
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"OUT.place"
           ~doc:"Save the placement to a file (reload with 'view').")
  in
  let ckpt_dir_arg =
    Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Checkpoint the run into DIR (created if needed): a crash-safe \
                 snapshot after every completed floorplan instance and at \
                 each stage boundary. Inspect with $(b,hidap ckpt).")
  in
  let resume_arg =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Resume from the newest valid snapshot in --checkpoint-dir. \
                 Finished work is replayed instead of recomputed and the final \
                 placement is bit-identical to an uninterrupted run. An empty \
                 or wholly corrupted directory starts from scratch, so a \
                 retry loop can always pass --resume.")
  in
  Cmd.v (Cmd.info "place" ~doc:"Run the HiDaP macro placement flow" ~exits)
    Term.(const run $ file_arg $ circuit_arg $ seed_arg $ lambda_arg $ jobs_arg $ svg_arg
          $ ascii_arg $ save_arg $ strict_arg $ budget_arg $ trace_arg $ metrics_arg
          $ profile_arg $ qor_arg $ profile_out_arg $ perf_out_arg $ progress_file_arg
          $ progress_fd_arg $ ckpt_dir_arg $ resume_arg)

(* ---- eval --------------------------------------------------------- *)

let eval_cmd =
  let run file circuit seed jobs strict budget trace metrics profile qor =
    let faults, budgets = supervision ~budget in
    let qor_out = Option.map (open_output ~what:"qor") qor in
    let on_finish = obs_outputs ~trace ~metrics ~profile in
    let config =
      { (config_of ~seed ~lambda:None ~jobs) with Hidap.Config.faults; budgets }
    in
    let source = source_of ~file ~circuit in
    let ev =
      Qor.Run.eval ~config ~on_finish (fun () ->
          let input = input_or_exit ~strict ~config source in
          (input.Qor.Run.name, input.Qor.Run.flat))
    in
    let res = ev.Qor.Run.result in
    print_degradations ev.Qor.Run.degradations;
    Format.printf "circuit %s: %d cells, %d macros@." res.Evalflow.circuit
      res.Evalflow.cells res.Evalflow.macro_count;
    let rows =
      List.map
        (fun (r : Evalflow.run) ->
          let m = r.Evalflow.metrics in
          [ Evalflow.flow_name r.Evalflow.kind;
            Report.Table.fmt_f 3 m.Evalflow.wl_m;
            Report.Table.fmt_f 3 (Evalflow.normalized_wl res r);
            Report.Table.fmt_f 2 m.Evalflow.grc_pct;
            Report.Table.fmt_f 1 m.Evalflow.wns_pct;
            Report.Table.fmt_f 0 m.Evalflow.tns;
            Report.Table.fmt_f 2 m.Evalflow.runtime_s ])
        res.Evalflow.runs
    in
    print_string
      (Report.Table.render
         ~header:[ "flow"; "WL(m)"; "WLnorm"; "GRC%"; "WNS%"; "TNS"; "rt(s)" ]
         rows);
    (* λ sweep of the HiDaP run, losing candidates included. *)
    List.iter
      (fun (r : Evalflow.run) ->
        match r.Evalflow.sweep_trace with
        | [] -> ()
        | sweep ->
          Format.printf "%s lambda sweep:%s@."
            (Evalflow.flow_name r.Evalflow.kind)
            (String.concat ""
               (List.map (fun (l, o) -> Printf.sprintf "  %.1f->%.0f" l o) sweep)))
      res.Evalflow.runs;
    write_output "qor" qor_out (Qor.Record.ledger_json ev.Qor.Run.records);
    if Guard.Supervisor.budget_degraded ev.Qor.Run.degradations then exit exit_budget
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Compare the IndEDA and HiDaP flows; WLnorm is WL over the best known \
             (the lowest WL measured by either flow at this seed)"
       ~exits)
    Term.(const run $ file_arg $ circuit_arg $ seed_arg $ jobs_arg $ strict_arg
          $ budget_arg $ trace_arg $ metrics_arg $ profile_arg $ qor_arg)

(* ---- check -------------------------------------------------------- *)

let check_cmd =
  let run file circuit circuits strict audit seed jobs list_sites list_codes =
    if list_sites then
      List.iter
        (fun (site, fallback) -> Format.printf "%s\t%s@." site fallback)
        Guard.Fault.sites
    else if list_codes then
      List.iter
        (fun (code, severity, doc) -> Format.printf "%s\t%s\t%s@." code severity doc)
        Guard.Diag.codes
    else begin
      let names l = String.split_on_char ',' l |> List.filter (fun s -> s <> "") in
      let targets =
        match (file, circuit, circuits) with
        | Some path, None, None -> [ Qor.Run.File path ]
        | None, Some name, None -> [ Qor.Run.Circuit name ]
        | None, None, Some l -> List.map (fun n -> Qor.Run.Circuit n) (names l)
        | None, None, None -> die_usage "give FILE.hnl, --circuit or --circuits"
        | _ -> die_usage "give exactly one of FILE.hnl, --circuit or --circuits"
      in
      let config = config_of ~seed ~lambda:None ~jobs in
      (* Check every target before exiting, reporting the worst failure:
         one bad circuit must not mask diagnostics for the rest. *)
      let worst = ref 0 in
      let bump c = if c > !worst then worst := c in
      List.iter
        (fun source ->
          let name = Qor.Run.name_of source in
          match load_input ~strict ~config source with
          | Error (Qor.Run.Invalid_design diags) ->
            let n = List.length (Guard.Validate.errors diags) in
            Format.printf "%s: INVALID (%d error%s)@." name n (if n = 1 then "" else "s");
            bump exit_invalid
          | Error (Qor.Run.Invalid_netlist _) ->
            Format.printf "%s: INVALID@." name;
            bump exit_invalid
          | Error stop -> exit (stop_code stop)
          | Ok input when audit ->
            (* Without a checkpoint session, [Qor.Run.place] cannot stop. *)
            let p = Result.get_ok (Qor.Run.place ~config ~measure:false input) in
            print_degradations p.Qor.Run.degradations;
            let report = audit_result ~flat:input.Qor.Run.flat p.Qor.Run.result in
            Guard.Audit.pp_summary Format.std_formatter report;
            if Guard.Audit.ok report then
              Format.printf "%s: OK (validated and audited)@." name
            else begin
              Format.printf "%s: AUDIT FAILED@." name;
              bump exit_audit
            end
          | Ok _ -> Format.printf "%s: OK@." name)
        targets;
      if !worst <> 0 then exit !worst
    end
  in
  let circuits_arg =
    Arg.(value & opt (some string) None & info [ "circuits" ] ~docv:"c1,c2"
           ~doc:"Comma-separated suite circuits to check.")
  in
  let audit_arg =
    Arg.(value & flag & info [ "audit" ]
           ~doc:"Also run the full placement flow and the legality audit on \
                 each target.")
  in
  let list_sites_arg =
    Arg.(value & flag & info [ "list-fault-sites" ]
           ~doc:"Print the registered fault-injection sites (name, fallback) \
                 and exit; the names are valid in $(b,HIDAP_FAULT).")
  in
  let list_codes_arg =
    Arg.(value & flag & info [ "list-codes" ]
           ~doc:"Print the stable diagnostic code table (code, severity, \
                 meaning) and exit. The table mirrors DESIGN.md section 10 \
                 and CI asserts the two stay in sync.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Validate designs (and optionally audit their placements)" ~exits)
    Term.(const run $ file_arg $ circuit_arg $ circuits_arg $ strict_arg $ audit_arg
          $ seed_arg $ jobs_arg $ list_sites_arg $ list_codes_arg)

(* ---- gen ---------------------------------------------------------- *)

let gen_cmd =
  let run circuit out =
    match circuit with
    | None -> die_usage "--circuit is required"
    | Some name ->
      let design = (input_or_exit ~strict:false (Qor.Run.Circuit name)).Qor.Run.design in
      (match out with
      | Some path ->
        Hnl.Printer.write_file path design;
        Format.printf "wrote %s@." path
      | None -> print_string (Hnl.Printer.to_string design))
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE.hnl"
           ~doc:"Output file (stdout when omitted).")
  in
  Cmd.v (Cmd.info "gen" ~doc:"Emit a synthetic suite circuit as HNL text")
    Term.(const run $ circuit_arg $ out_arg)

(* ---- view --------------------------------------------------------- *)

let view_cmd =
  let run file circuit placement_file =
    let flat = (input_or_exit ~strict:false (source_of ~file ~circuit)).Qor.Run.flat in
    match Hidap.Placement_io.load placement_file with
    | Error msg ->
      Format.eprintf "%s: %s@." placement_file msg;
      exit exit_invalid
    | Ok pl ->
      (match Hidap.Placement_io.resolve flat pl with
      | Error msg ->
        Format.eprintf "%s@." msg;
        exit exit_invalid
      | Ok placements ->
        let die = pl.Hidap.Placement_io.die in
        let gseq = Seqgraph.build flat in
        let ports = Hidap.Port_plan.make gseq ~die in
        let m, _ = Evalflow.measure ~flat ~gseq ~ports ~die ~macros:placements in
        Format.printf "WL %.3f m  GRC %.2f%%  WNS %.1f%%  TNS %.0f@." m.Evalflow.wl_m
          m.Evalflow.grc_pct m.Evalflow.wns_pct m.Evalflow.tns;
        print_string
          (Viz.Ascii.floorplan ~die
             ~rects:
               (List.map (fun (p : Hidap.macro_placement) -> ("M", p.Hidap.rect)) placements)
             ~width:64 ~height:28 ()))
  in
  let placement_arg =
    Arg.(required & opt (some file) None & info [ "placement" ] ~docv:"FILE.place"
           ~doc:"Placement file produced by 'place --save'.")
  in
  Cmd.v (Cmd.info "view" ~doc:"Evaluate and render a saved placement")
    Term.(const run $ file_arg $ circuit_arg $ placement_arg)

(* ---- report ------------------------------------------------------- *)

let default_baselines = Filename.concat "bench" "baselines.json"

let baselines_arg =
  Arg.(value & opt (some string) None & info [ "baselines" ] ~docv:"FILE.json"
         ~doc:(Printf.sprintf
                 "Baselines file for the QoR delta tables / regression gate \
                  (default %s when it exists)." default_baselines))

let load_baselines ~required path =
  let path, explicit =
    match path with Some p -> (p, true) | None -> (default_baselines, false)
  in
  if (not explicit) && not (Sys.file_exists path) then begin
    if required then begin
      Format.eprintf
        "hidap: no baselines at %s; run 'hidap bench --update-baselines' first@." path;
      exit 1
    end;
    None
  end
  else
    match Qor.Baseline.load path with
    | Ok b -> Some b
    | Error msg ->
      Format.eprintf "hidap: %s@." msg;
      exit 1

let report_one ?baseline ~input ~output records =
  let title = Printf.sprintf "HiDaP run report — %s" (Filename.basename input) in
  Qor.Html.write_file output (Qor.Html.render ?baseline ~title records);
  Format.printf "wrote %s (%d record%s)@." output (List.length records)
    (if List.length records = 1 then "" else "s")

let report_cmd =
  let run input output baselines =
    let baseline = load_baselines ~required:false baselines in
    if Sys.is_directory input then begin
      let entries =
        Sys.readdir input |> Array.to_list |> List.sort compare
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.filter_map (fun f ->
               let path = Filename.concat input f in
               (* Other JSON (a --trace or --metrics file) is skipped
                  silently; a QoR document that fails to decode is named. *)
               match Obs.Jsonx.parse_file path with
               | Error _ -> None
               | Ok j ->
                 (match Obs.Jsonx.member "schema" j with
                 | Some (Obs.Jsonx.String s)
                   when s = Qor.Record.schema || s = Qor.Record.ledger_schema ->
                   (match Qor.Record.records_of_json j with
                   | Ok (_ :: _ as records) -> Some (path, records)
                   | Ok [] -> None
                   | Error msg ->
                     Format.eprintf "hidap: skipping %s: %s@." path msg;
                     None)
                 | _ -> None))
      in
      if entries = [] then begin
        Format.eprintf "hidap: no QoR ledgers found under %s@." input;
        exit 1
      end;
      List.iter
        (fun (path, records) ->
          report_one ?baseline ~input:path
            ~output:(Filename.remove_extension path ^ ".html")
            records)
        entries
    end
    else
      let output =
        match output with
        | Some o -> o
        | None -> Filename.remove_extension input ^ ".html"
      in
      match Qor.Record.load_ledger input with
      | Error msg ->
        Format.eprintf "hidap: %s@." msg;
        exit 1
      | Ok records -> report_one ?baseline ~input ~output records
  in
  let input_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LEDGER|DIR"
           ~doc:"A QoR ledger JSON file, or a directory of them.")
  in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.html"
           ~doc:"Output file (default: ledger path with .html extension).")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Render QoR ledgers as self-contained HTML run reports")
    Term.(const run $ input_arg $ output_arg $ baselines_arg)

(* ---- explain / diff ----------------------------------------------- *)

(* Both commands read QoR ledgers written by `place --qor` (one record),
   `eval --qor` (one per flow) or `bench --qor` (one per flow and
   circuit); the first record carrying the attribution section, a
   HiDaP one, is preferred. *)
let load_run path =
  match Qor.Record.load_ledger path with
  | Error msg ->
    Format.eprintf "hidap: %s@." msg;
    exit exit_invalid
  | Ok [] ->
    Format.eprintf "hidap: %s: empty ledger@." path;
    exit exit_invalid
  | Ok records ->
    (match
       List.find_opt (fun r -> r.Qor.Record.cost_breakdown <> None) records
     with
    | Some r -> r
    | None -> List.hd records)

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K"
         ~doc:"How many blocks / affinity pairs to show (default 10).")

let take k l =
  let rec go k = function
    | [] -> []
    | _ when k <= 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go k l

let pct_of ~total v = if total <> 0.0 then 100.0 *. v /. total else 0.0

let term_value cb name =
  Option.value ~default:0.0 (List.assoc_opt name cb.Qor.Record.cb_terms)

let explain_cmd =
  let run input top heatmap =
    let r = load_run input in
    match r.Qor.Record.cost_breakdown with
    | None ->
      Format.eprintf
        "hidap: %s carries no cost_breakdown section (a flow that does not \
         floorplan, a top instance replayed from a checkpoint, or a pre-v3 \
         record); re-run 'hidap place --qor' or 'hidap eval --qor' to \
         attribute the cost@."
        input;
      exit exit_invalid
    | Some cb ->
      Format.printf "%s · %s · seed %d · total cost %.6g@." r.Qor.Record.circuit
        r.Qor.Record.flow r.Qor.Record.seed cb.Qor.Record.cb_total;
      let total = cb.Qor.Record.cb_total in
      print_string
        (Report.Table.render ~header:[ "term"; "value"; "share" ]
           (List.map
              (fun (name, v) ->
                [ name; Report.Table.fmt_f 6 v;
                  Report.Table.fmt_f 2 (pct_of ~total v) ^ "%" ])
              cb.Qor.Record.cb_terms));
      (match cb.Qor.Record.cb_blocks with
      | [] -> ()
      | blocks ->
        let wl_term = term_value cb "wirelength" in
        Format.printf "top %d blocks by wirelength share:@." top;
        print_string
          (Report.Table.render
             ~header:[ "block"; "wl"; "wl%"; "at_shift"; "am_def"; "macro_def" ]
             (take top
                (List.sort
                   (fun (a : Qor.Record.block_contrib) b ->
                     compare b.Qor.Record.bc_wl a.Qor.Record.bc_wl)
                   blocks)
                |> List.map (fun (b : Qor.Record.block_contrib) ->
                       [ b.Qor.Record.bc_name;
                         Report.Table.fmt_f 2 b.Qor.Record.bc_wl;
                         Report.Table.fmt_f 1 (pct_of ~total:wl_term b.Qor.Record.bc_wl)
                         ^ "%";
                         Report.Table.fmt_f 2 b.Qor.Record.bc_at_shift;
                         Report.Table.fmt_f 2 b.Qor.Record.bc_am_deficit;
                         Report.Table.fmt_f 2 b.Qor.Record.bc_macro_deficit ]))));
      (match cb.Qor.Record.cb_pairs with
      | [] -> ()
      | pairs ->
        let wl_term = term_value cb "wirelength" in
        Format.printf "top %d affinity pairs by wirelength contribution:@." top;
        print_string
          (Report.Table.render ~header:[ "a"; "b"; "weight"; "wl"; "wl%" ]
             (take top
                (List.sort
                   (fun (a : Qor.Record.pair_contrib) b ->
                     compare b.Qor.Record.pair_wl a.Qor.Record.pair_wl)
                   pairs)
                |> List.map (fun (p : Qor.Record.pair_contrib) ->
                       [ p.Qor.Record.pair_a; p.Qor.Record.pair_b;
                         Report.Table.fmt_f 3 p.Qor.Record.pair_weight;
                         Report.Table.fmt_f 2 p.Qor.Record.pair_wl;
                         Report.Table.fmt_f 1 (pct_of ~total:wl_term p.Qor.Record.pair_wl)
                         ^ "%" ]))));
      match heatmap with
      | None -> ()
      | Some path ->
        let labels, values = Qor.Html.contribution_matrix cb in
        Viz.Svg.write_file path (Viz.Svg.contribution_heatmap ~labels ~values ());
        Format.printf "wrote %s@." path
  in
  let input_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"RUN.json"
           ~doc:"QoR ledger written by 'place --qor' (or 'eval --qor', 'bench --qor').")
  in
  let heatmap_arg =
    Arg.(value & opt (some string) None & info [ "heatmap" ] ~docv:"OUT.svg"
           ~doc:"Write the affinity-pair wirelength contributions as a labelled \
                 heat-map SVG.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Attribute a run's cost to terms, blocks and affinity pairs" ~exits)
    Term.(const run $ input_arg $ top_arg $ heatmap_arg)

let diff_cmd =
  let run input_a input_b top =
    let ra = load_run input_a and rb = load_run input_b in
    Format.printf "A %s: %s · %s · seed %d · WL %.4g um@." input_a
      ra.Qor.Record.circuit ra.Qor.Record.flow ra.Qor.Record.seed
      ra.Qor.Record.qm.Qor.Record.wl_um;
    Format.printf "B %s: %s · %s · seed %d · WL %.4g um@." input_b
      rb.Qor.Record.circuit rb.Qor.Record.flow rb.Qor.Record.seed
      rb.Qor.Record.qm.Qor.Record.wl_um;
    (match (ra.Qor.Record.cost_breakdown, rb.Qor.Record.cost_breakdown) with
    | Some ca, Some cbb ->
      Format.printf "cost %.6g -> %.6g (%+.2f%%)@." ca.Qor.Record.cb_total
        cbb.Qor.Record.cb_total
        (if ca.Qor.Record.cb_total <> 0.0 then
           100.0 *. ((cbb.Qor.Record.cb_total /. ca.Qor.Record.cb_total) -. 1.0)
         else 0.0);
      let names =
        List.map fst ca.Qor.Record.cb_terms
        @ List.filter
            (fun n -> not (List.mem_assoc n ca.Qor.Record.cb_terms))
            (List.map fst cbb.Qor.Record.cb_terms)
      in
      print_string
        (Report.Table.render ~header:[ "term"; "A"; "B"; "delta"; "delta%" ]
           (List.map
              (fun name ->
                let a = term_value ca name and b = term_value cbb name in
                [ name; Report.Table.fmt_f 6 a; Report.Table.fmt_f 6 b;
                  Report.Table.fmt_f 6 (b -. a);
                  (if a <> 0.0 then
                     Report.Table.fmt_f 2 (100.0 *. ((b /. a) -. 1.0)) ^ "%"
                   else "-") ])
              names));
      (* per-pair wl deltas, matched on the unordered endpoint names *)
      let key (p : Qor.Record.pair_contrib) =
        if p.Qor.Record.pair_a <= p.Qor.Record.pair_b then
          (p.Qor.Record.pair_a, p.Qor.Record.pair_b)
        else (p.Qor.Record.pair_b, p.Qor.Record.pair_a)
      in
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun p ->
          let k = key p in
          let wa, _ = try Hashtbl.find tbl k with Not_found -> (0.0, 0.0) in
          Hashtbl.replace tbl k (wa +. p.Qor.Record.pair_wl, 0.0))
        ca.Qor.Record.cb_pairs;
      List.iter
        (fun p ->
          let k = key p in
          let wa, wb = try Hashtbl.find tbl k with Not_found -> (0.0, 0.0) in
          Hashtbl.replace tbl k (wa, wb +. p.Qor.Record.pair_wl))
        cbb.Qor.Record.cb_pairs;
      let deltas =
        Hashtbl.fold (fun (a, b) (wa, wb) acc -> ((a, b), wa, wb) :: acc) tbl []
        |> List.sort (fun (ka, wa, wba) (kb, wb2, wbb) ->
               match
                 compare (abs_float (wbb -. wb2)) (abs_float (wba -. wa))
               with
               | 0 -> compare ka kb
               | c -> c)
      in
      (match deltas with
      | [] -> ()
      | _ ->
        Format.printf "top %d affinity pairs by |wl delta|:@." top;
        print_string
          (Report.Table.render ~header:[ "a"; "b"; "A wl"; "B wl"; "delta" ]
             (take top deltas
              |> List.map (fun ((a, b), wa, wb) ->
                     [ a; b; Report.Table.fmt_f 2 wa; Report.Table.fmt_f 2 wb;
                       Report.Table.fmt_f 2 (wb -. wa) ]))))
    | _ ->
      let missing =
        match (ra.Qor.Record.cost_breakdown, rb.Qor.Record.cost_breakdown) with
        | None, None -> "both runs"
        | None, _ -> input_a
        | _ -> input_b
      in
      Format.printf
        "(no cost_breakdown in %s; term and pair deltas skipped — macro \
         displacement below)@."
        missing);
    (* per-macro displacement, always available from the geometry *)
    let moved =
      List.filter_map
        (fun (ma : Qor.Record.macro) ->
          List.find_opt
            (fun (mb : Qor.Record.macro) ->
              mb.Qor.Record.macro_name = ma.Qor.Record.macro_name)
            rb.Qor.Record.macros
          |> Option.map (fun (mb : Qor.Record.macro) ->
                 let d =
                   Geom.Point.euclidean
                     (Geom.Rect.center ma.Qor.Record.macro_rect)
                     (Geom.Rect.center mb.Qor.Record.macro_rect)
                 in
                 (ma, mb, d)))
        ra.Qor.Record.macros
    in
    (match moved with
    | [] -> Format.printf "(no common macros between the two runs)@."
    | _ ->
      let n = List.length moved in
      let mean = List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 moved /. float_of_int n in
      Format.printf "macro displacement: %d common macro(s), mean %.2f um@." n mean;
      Format.printf "top %d macros by displacement:@." top;
      print_string
        (Report.Table.render
           ~header:[ "macro"; "disp(um)"; "A orient"; "B orient" ]
           (take top
              (List.sort (fun (_, _, da) (_, _, db) -> compare db da) moved)
            |> List.map
                 (fun ((ma : Qor.Record.macro), (mb : Qor.Record.macro), d) ->
                   [ ma.Qor.Record.macro_name; Report.Table.fmt_f 2 d;
                     Geom.Orientation.to_string ma.Qor.Record.orient;
                     (let oa = Geom.Orientation.to_string ma.Qor.Record.orient
                      and ob = Geom.Orientation.to_string mb.Qor.Record.orient in
                      if oa = ob then ob else ob ^ " *") ]))));
    let unmatched =
      List.length ra.Qor.Record.macros + List.length rb.Qor.Record.macros
      - (2 * List.length moved)
    in
    if unmatched > 0 then
      Format.printf "(%d macro(s) present in only one run)@." unmatched
  in
  let input_a_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"RUN_A.json"
           ~doc:"Baseline run's QoR ledger.")
  in
  let input_b_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"RUN_B.json"
           ~doc:"Candidate run's QoR ledger.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two runs term by term and macro by macro" ~exits)
    Term.(const run $ input_a_arg $ input_b_arg $ top_arg)

(* ---- bench -------------------------------------------------------- *)

let bench_cmd =
  let run circuits baselines update jobs qor report_out =
    let qor_out = Option.map (open_output ~what:"qor") qor in
    let names = String.split_on_char ',' circuits |> List.filter (fun s -> s <> "") in
    let config = { Hidap.Config.default with Hidap.Config.jobs = resolve_jobs jobs } in
    let baselines_path = Option.value ~default:default_baselines baselines in
    (* A gate reads its baselines before the runs, so a bad file fails fast. *)
    let baseline =
      if update then None else load_baselines ~required:true (Some baselines_path)
    in
    let records =
      List.concat_map
        (fun name ->
          let ev =
            Qor.Run.eval ~config (fun () ->
                let input = input_or_exit ~strict:false ~config (Qor.Run.Circuit name) in
                (name, input.Qor.Run.flat))
          in
          let res = ev.Qor.Run.result in
          Format.printf "bench %s: %d cells, %d macros, %d flows@." name
            res.Evalflow.cells res.Evalflow.macro_count (List.length ev.Qor.Run.records);
          ev.Qor.Run.records)
        names
    in
    write_output "qor" qor_out (Qor.Record.ledger_json records);
    match baseline with
    | None ->
      Qor.Baseline.write baselines_path (Qor.Baseline.of_records records);
      Format.printf "wrote baselines %s (%d entries)@." baselines_path
        (List.length records);
      (match report_out with
      | Some path ->
        Qor.Html.write_file path (Qor.Html.render ~title:"hidap bench" records);
        Format.printf "wrote report %s@." path
      | None -> ())
    | Some b ->
      let comparisons = Qor.Baseline.compare_all b records in
      print_string (Qor.Baseline.render comparisons);
      (match report_out with
      | Some path ->
        Qor.Html.write_file path
          (Qor.Html.render ~baseline:b ~title:"hidap bench" records);
        Format.printf "wrote report %s@." path
      | None -> ());
      if Qor.Baseline.overall comparisons = Qor.Baseline.Regressed then begin
        flush stdout;
        Format.eprintf "hidap bench: QoR regression beyond tolerance@.";
        exit 1
      end
  in
  let circuits_arg =
    Arg.(value & opt string "c1" & info [ "circuits" ] ~docv:"c1,c2"
           ~doc:"Comma-separated suite circuits to run (default c1).")
  in
  let update_arg =
    Arg.(value & flag & info [ "update-baselines" ]
           ~doc:"Regenerate the baselines file from this run instead of gating.")
  in
  let report_arg =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"OUT.html"
           ~doc:"Also write a self-contained HTML report of the run.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run suite circuits through all flows and gate QoR against baselines")
    Term.(const run $ circuits_arg $ baselines_arg $ update_arg $ jobs_arg $ qor_arg
          $ report_arg)

(* ---- serve / submit / jobs ---------------------------------------- *)

let socket_arg =
  Arg.(value & opt string "hidap.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix socket path of the daemon. Keep it short: the OS caps \
               socket paths around 100 bytes.")

let connect_client socket =
  (* a daemon dying mid-conversation must surface as EPIPE on the next
     send (-> exit 7), not kill the client with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  try Serve.Client.connect ~socket_path:socket
  with Unix.Unix_error (e, _, _) ->
    Format.eprintf "hidap: cannot connect to %s: %s (is 'hidap serve' running?)@."
      socket (Unix.error_message e);
    exit exit_daemon

(* A broken daemon conversation (refused, died mid-exchange) gets its
   own exit code so scripts can tell it from a failed job. *)
let client_error_code e fallback =
  if Serve.Client.is_conn e then exit_daemon else fallback

(* Fetch a done job's QoR ledger into [out], opened before the daemon
   was contacted (stdout when [None]). A ledger that cannot be fetched
   fails the command. *)
let fetch_result cl id out =
  match Serve.Client.result cl id with
  | Ok qor ->
    if out = None then print_endline (Obs.Jsonx.to_string qor)
    else write_output "qor" out qor;
    0
  | Error e ->
    Format.eprintf "hidap: result: %s@." (Serve.Client.error_message e);
    client_error_code e 1

let print_job_view (v : Serve.Proto.job_view) =
  Format.printf "%s  %-9s  attempts %d  %s%s@." v.Serve.Proto.id
    (Serve.Proto.state_to_string v.Serve.Proto.state)
    v.Serve.Proto.attempts v.Serve.Proto.label
    (if v.Serve.Proto.detail = "" then "" else "  — " ^ v.Serve.Proto.detail)

let serve_cmd =
  let run socket state_dir queue_limit workers drain_grace jobs retry_base
      job_mem_mb job_cpu_s job_stall max_line_bytes =
    let faults =
      match Guard.Fault.of_env () with Ok s -> s | Error msg -> die_usage "%s" msg
    in
    if queue_limit < 1 then die_usage "--queue-limit must be at least 1";
    if workers < 1 then die_usage "--workers must be at least 1";
    (match job_mem_mb with
    | Some m when m < 16 -> die_usage "--job-mem-mb must be at least 16"
    | _ -> ());
    (match job_cpu_s with
    | Some s when s < 1 -> die_usage "--job-cpu-s must be at least 1"
    | _ -> ());
    if job_stall <= 0.0 then die_usage "--job-stall-s must be positive";
    if max_line_bytes < 1024 then die_usage "--max-line-bytes must be at least 1024";
    let cfg =
      { (Serve.Engine.default_config ~socket_path:socket ~state_dir) with
        Serve.Engine.queue_limit; workers; drain_grace_s = drain_grace;
        default_job_jobs = resolve_jobs jobs; retry_base_s = retry_base;
        job_mem_mb; job_cpu_s; stall_s = job_stall;
        max_line_bytes; faults }
    in
    let eng =
      try Serve.Engine.create cfg with
      | Unix.Unix_error (e, _, _) ->
        die_usage "cannot listen on %s: %s" socket (Unix.error_message e)
      | Guard.Diag.Fail d ->
        print_diag d;
        exit exit_daemon
    in
    let on_signal _ = Serve.Engine.request_drain eng in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Format.eprintf
      "hidap serve: listening on %s (state %s, queue limit %d, workers %d)@."
      socket state_dir queue_limit workers;
    Serve.Engine.run eng;
    Format.eprintf "hidap serve: drained@."
  in
  let state_dir_arg =
    Arg.(required & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"Job state directory (created if needed). Every job persists \
                 its spec, state, checkpoints and results under DIR/jobs/<id>; \
                 restarting the daemon on the same DIR recovers in-flight jobs \
                 bit-identically.")
  in
  let queue_limit_arg =
    Arg.(value & opt int 8 & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Admission bound: with N jobs queued, the next submit is \
                 rejected with a structured backpressure response (default 8).")
  in
  let drain_grace_arg =
    Arg.(value & opt float 5.0 & info [ "drain-grace" ] ~docv:"SECONDS"
           ~doc:"On drain (SIGTERM or a drain request), how long the in-flight \
                 job may keep running before it is asked to checkpoint and \
                 park (default 5).")
  in
  let retry_base_arg =
    Arg.(value & opt float 0.05 & info [ "retry-base" ] ~docv:"SECONDS"
           ~doc:"First retry backoff; doubles per attempt up to 2s \
                 (deterministic, no jitter).")
  in
  let workers_arg =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker processes. Each job attempt runs in its own forked \
                 process, so N jobs run genuinely in parallel and a crashing \
                 or hung job can never take the daemon down (default 1).")
  in
  let job_mem_mb_arg =
    Arg.(value & opt (some int) None & info [ "job-mem-mb" ] ~docv:"MB"
           ~doc:"Per-job address-space limit (setrlimit, soft=hard). A worker \
                 exhausting it fails its job with an rlimit classification; \
                 exhaustion is deterministic, so the job is not retried.")
  in
  let job_cpu_s_arg =
    Arg.(value & opt (some int) None & info [ "job-cpu-s" ] ~docv:"SECONDS"
           ~doc:"Per-job CPU-time limit (setrlimit; the kernel delivers \
                 SIGXCPU at the soft limit). Same no-retry classification as \
                 --job-mem-mb.")
  in
  let job_stall_arg =
    Arg.(value & opt float 30.0 & info [ "job-stall-s" ] ~docv:"SECONDS"
           ~doc:"Hung-job watchdog: SIGKILL a worker whose progress pipe has \
                 been silent this long and retry its job. Workers heartbeat \
                 every 0.5s, so this catches wedged workers, not slow jobs \
                 (default 30).")
  in
  let max_line_bytes_arg =
    Arg.(value & opt int (1 lsl 20) & info [ "max-line-bytes" ] ~docv:"N"
           ~doc:"Request framing bound: a request line longer than N bytes is \
                 rejected and the connection dropped (default 1MiB).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the placement job daemon (crash-contained worker processes, \
             admission control, per-job rlimits and deadlines, hung-job \
             watchdog, retry, graceful drain, crash recovery)" ~exits)
    Term.(const run $ socket_arg $ state_dir_arg $ queue_limit_arg
          $ workers_arg $ drain_grace_arg $ jobs_arg $ retry_base_arg
          $ job_mem_mb_arg $ job_cpu_s_arg $ job_stall_arg
          $ max_line_bytes_arg)

let submit_cmd =
  let run socket file circuit seed lambda jobs deadline max_retries label watch
      wait result_out =
    let spec =
      let base =
        { Serve.Proto.default_submit with
          Serve.Proto.seed; lambda; jobs; deadline_s = deadline;
          max_retries; label }
      in
      match (file, circuit) with
      | Some path, None ->
        let hnl =
          match open_in_bin path with
          | ic ->
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          | exception Sys_error msg -> die_usage "%s" msg
        in
        { base with
          Serve.Proto.hnl = Some hnl;
          label =
            (if label <> "" then label
             else Filename.remove_extension (Filename.basename path)) }
      | None, Some name -> { base with Serve.Proto.circuit = Some name }
      | Some _, Some _ | None, None ->
        die_usage "give exactly one of FILE.hnl or --circuit"
    in
    if result_out <> None && not (watch || wait) then
      die_usage "--result-out requires --watch or --wait";
    let result_out = Option.map (open_output ~what:"result") result_out in
    let cl = connect_client socket in
    let finish (v : Serve.Proto.job_view) =
      Format.printf "job %s: %s%s@." v.Serve.Proto.id
        (Serve.Proto.state_to_string v.Serve.Proto.state)
        (if v.Serve.Proto.detail = "" then ""
         else " (" ^ v.Serve.Proto.detail ^ ")");
      match v.Serve.Proto.state with
      | Serve.Proto.Done when result_out <> None ->
        fetch_result cl v.Serve.Proto.id result_out
      | Serve.Proto.Done -> 0
      | Serve.Proto.Timed_out -> exit_budget
      | Serve.Proto.Parked -> exit_interrupted
      | _ -> 1
    in
    let code =
      match Serve.Client.submit cl spec with
      | Error e ->
        Format.eprintf "hidap: submit: %s@." (Serve.Client.error_message e);
        client_error_code e exit_invalid
      | Ok (`Rejected (reason, depth, limit)) ->
        Format.eprintf "hidap: submit rejected: %s (queue %d/%d)@." reason depth
          limit;
        1
      | Ok (`Accepted (id, depth)) ->
        Format.printf "accepted %s (queue depth %d)@." id depth;
        if watch then begin
          match
            Serve.Client.watch cl id ~on_event:(fun e ->
                Format.eprintf "%s@." (Obs.Jsonx.to_string ~compact:true e))
          with
          | Ok v -> finish v
          | Error e ->
            Format.eprintf "hidap: watch: %s@." (Serve.Client.error_message e);
            client_error_code e 1
        end
        else if wait then begin
          (* the daemon pushes the terminal view to a watcher, so no
             polling and no cap on how long the job may run *)
          match Serve.Client.watch cl id ~on_event:ignore with
          | Ok v -> finish v
          | Error e ->
            Format.eprintf "hidap: wait: %s@." (Serve.Client.error_message e);
            client_error_code e 1
        end
        else 0
    in
    Serve.Client.close cl;
    if code <> 0 then exit code
  in
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS"
           ~doc:"Per-attempt wall-clock deadline. A job past it lands in the \
                 timed-out terminal state without harming other jobs.")
  in
  let max_retries_arg =
    Arg.(value & opt int 0 & info [ "max-retries" ] ~docv:"N"
           ~doc:"Extra attempts after a transient failure, re-queued with \
                 deterministic capped exponential backoff (default 0).")
  in
  let label_arg =
    Arg.(value & opt string "" & info [ "label" ] ~docv:"NAME"
           ~doc:"Job label shown by 'hidap jobs' (default: the file name).")
  in
  let watch_flag =
    Arg.(value & flag & info [ "watch" ]
           ~doc:"Stream the job's progress events to stderr until it finishes; \
                 the exit code reflects the terminal state.")
  in
  let wait_flag =
    Arg.(value & flag & info [ "wait" ]
           ~doc:"Block until the job reaches a terminal state (without \
                 streaming progress).")
  in
  let result_out_arg =
    Arg.(value & opt (some string) None & info [ "result-out" ] ~docv:"OUT.json"
           ~doc:"With --watch/--wait: download the finished job's QoR ledger \
                 (render it with $(b,hidap report)). The file is opened \
                 before the job is submitted.")
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a placement job to a running daemon" ~exits)
    Term.(const run $ socket_arg $ file_arg $ circuit_arg $ seed_arg $ lambda_arg
          $ jobs_arg $ deadline_arg $ max_retries_arg $ label_arg
          $ watch_flag $ wait_flag $ result_out_arg)

let jobs_cmd =
  let run socket stats status result output drain =
    let output =
      if result = None then None else Option.map (open_output ~what:"result") output
    in
    let cl = connect_client socket in
    let code =
      match (status, result, stats, drain) with
      | Some id, None, false, false ->
        (match Serve.Client.status cl id with
        | Ok v ->
          print_job_view v;
          0
        | Error e ->
          Format.eprintf "hidap: %s@." (Serve.Client.error_message e);
          client_error_code e 1)
      | None, Some id, false, false -> fetch_result cl id output
      | None, None, true, false ->
        (match Serve.Client.stats cl with
        | Ok s ->
          Format.printf
            "queue %d/%d%s@.accepted %d  completed %d  failed %d  timed-out %d  \
             parked %d  retried %d  worker-lost %d@.rejected: backpressure %d, \
             draining %d@."
            s.Serve.Proto.queue_depth s.Serve.Proto.queue_limit
            (if s.Serve.Proto.draining then "  (draining)" else "")
            s.Serve.Proto.accepted s.Serve.Proto.completed s.Serve.Proto.failed
            s.Serve.Proto.timed_out s.Serve.Proto.parked s.Serve.Proto.retried
            s.Serve.Proto.worker_lost s.Serve.Proto.rejected_backpressure
            s.Serve.Proto.rejected_draining;
          List.iter
            (fun (w : Serve.Proto.worker_view) ->
              match (w.Serve.Proto.pid, w.Serve.Proto.job) with
              | Some pid, Some job ->
                Format.printf "worker %d  pid %d  %s  %.1fs@." w.Serve.Proto.slot
                  pid job w.Serve.Proto.elapsed_s
              | _ -> Format.printf "worker %d  idle@." w.Serve.Proto.slot)
            s.Serve.Proto.workers;
          0
        | Error e ->
          Format.eprintf "hidap: %s@." (Serve.Client.error_message e);
          client_error_code e 1)
      | None, None, false, true ->
        (match Serve.Client.drain cl with
        | Ok () ->
          Format.printf "drain requested@.";
          0
        | Error e ->
          Format.eprintf "hidap: %s@." (Serve.Client.error_message e);
          client_error_code e 1)
      | None, None, false, false ->
        (match Serve.Client.list cl with
        | Ok [] ->
          Format.printf "no jobs@.";
          0
        | Ok vs ->
          List.iter print_job_view vs;
          0
        | Error e ->
          Format.eprintf "hidap: %s@." (Serve.Client.error_message e);
          client_error_code e 1)
      | _ -> die_usage "give at most one of --status, --result, --stats, --drain"
    in
    Serve.Client.close cl;
    if code <> 0 then exit code
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print daemon statistics.")
  in
  let status_arg =
    Arg.(value & opt (some string) None & info [ "status" ] ~docv:"ID"
           ~doc:"Print one job's state.")
  in
  let result_arg =
    Arg.(value & opt (some string) None & info [ "result" ] ~docv:"ID"
           ~doc:"Fetch a completed job's QoR ledger (render it with \
                 $(b,hidap report)).")
  in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Write --result output to a file instead of stdout.")
  in
  let drain_flag =
    Arg.(value & flag & info [ "drain" ]
           ~doc:"Ask the daemon to drain: stop accepting jobs, finish or park \
                 the in-flight one, and exit 0.")
  in
  Cmd.v
    (Cmd.info "jobs" ~doc:"List and query a running daemon's jobs" ~exits)
    Term.(const run $ socket_arg $ stats_flag $ status_arg $ result_arg
          $ output_arg $ drain_flag)

(* ---- ckpt --------------------------------------------------------- *)

let ckpt_cmd =
  let dir_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Checkpoint directory (as given to 'place --checkpoint-dir').")
  in
  let open_store ?keep dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      die_usage "%s is not a directory" dir;
    match Ckpt.Store.open_ ?keep ~fresh:false dir with
    | Ok s -> s
    | Error msg ->
      Format.eprintf "hidap: %s: %s@." dir msg;
      exit exit_invalid
  in
  let describe = function
    | Ok st ->
      Printf.sprintf "ok    %d instance(s)%s"
        (List.length st.Ckpt.State.instances)
        (match st.Ckpt.State.stages with
        | [] -> ""
        | l -> ", stages " ^ String.concat "+" l)
    | Error msg -> "BAD   " ^ msg
  in
  let ls_cmd =
    let run dir =
      let store = open_store dir in
      let entries = Ckpt.Store.entries store in
      if entries = [] then Format.printf "no snapshots in %s@." dir
      else
        (* Snapshots are cumulative: a stage boundary is a snapshot
           whose stage list grew past the last decoded one. *)
        ignore
          (List.fold_left
             (fun prev (e : Ckpt.Store.entry) ->
               let decoded = Ckpt.Store.read_entry store e in
               let stages =
                 match decoded with
                 | Ok st -> List.length st.Ckpt.State.stages
                 | Error _ -> prev
               in
               Format.printf "%s  %s  %s@." e.Ckpt.Store.file
                 (if stages > prev then "stage" else "     ")
                 (describe decoded);
               stages)
             0 entries)
    in
    Cmd.v
      (Cmd.info "ls" ~doc:"List the snapshots of a checkpoint directory" ~exits)
      Term.(const run $ dir_pos)
  in
  let inspect_cmd =
    let run dir seq =
      let store = open_store dir in
      let entries = Ckpt.Store.entries store in
      let entry =
        match seq with
        | None ->
          (match List.rev entries with
          | [] ->
            Format.eprintf "hidap: %s: no snapshots@." dir;
            exit exit_invalid
          | e :: _ -> e)
        | Some n ->
          (match
             List.find_opt (fun (e : Ckpt.Store.entry) -> e.Ckpt.Store.seq = n) entries
           with
          | Some e -> e
          | None ->
            Format.eprintf "hidap: %s: no snapshot with sequence %d@." dir n;
            exit exit_invalid)
      in
      match Ckpt.Store.read_entry store entry with
      | Error msg ->
        Format.eprintf "hidap: %s: %s@." entry.Ckpt.Store.file msg;
        exit exit_invalid
      | Ok st -> print_endline (Obs.Jsonx.to_string (Ckpt.State.to_json st))
    in
    let seq_arg =
      Arg.(value & opt (some int) None & info [ "seq" ] ~docv:"N"
             ~doc:"Snapshot sequence number (default: the newest).")
    in
    Cmd.v
      (Cmd.info "inspect" ~doc:"Decode one snapshot and print it as JSON" ~exits)
      Term.(const run $ dir_pos $ seq_arg)
  in
  let gc_cmd =
    let run dir keep =
      let store = open_store ?keep dir in
      let removed = Ckpt.Store.gc ?keep store in
      Format.printf "removed %d file(s)@." (List.length removed);
      List.iter print_endline removed
    in
    let keep_arg =
      Arg.(value & opt (some int) None & info [ "keep" ] ~docv:"K"
             ~doc:"Number of newest snapshots to keep (default 4). Each \
                   snapshot holds the whole run so far, so the newest \
                   valid one supersedes the rest.")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Delete every snapshot file older than the newest K" ~exits)
      Term.(const run $ dir_pos $ keep_arg)
  in
  Cmd.group
    (Cmd.info "ckpt" ~doc:"Inspect and maintain checkpoint directories" ~exits)
    [ ls_cmd; inspect_cmd; gc_cmd ]

let () =
  let info =
    Cmd.info "hidap" ~version:"1.0.0"
      ~doc:"RTL-aware dataflow-driven macro placement (DATE 2019 reproduction)"
      ~exits
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ stats_cmd; place_cmd; eval_cmd; check_cmd; gen_cmd; view_cmd; report_cmd;
            explain_cmd; diff_cmd; bench_cmd; ckpt_cmd; serve_cmd; submit_cmd;
            jobs_cmd ]))
