type severity = Info | Warning | Error

type loc = { file : string option; line : int; col : int }

type t = {
  code : string;
  severity : severity;
  stage : string;
  loc : loc option;
  message : string;
}

exception Fail of t

(* Registry of every stable code: (code, severity discipline, meaning).
   This is the single source of truth — `hidap check --list-codes`
   prints it and CI asserts the DESIGN.md section 10 table matches, so
   the docs cannot drift from the implementation. Keep entries in the
   order the pipeline can emit them (validation, elaboration, flow,
   checkpointing). *)
let codes =
  [ ("dup-module", "warning (repaired: later duplicate dropped)",
     "two module definitions share a name");
    ("dup-port", "warning (repaired: duplicate dropped)",
     "duplicate port declaration in a module");
    ("dup-cell", "warning (repaired: duplicate dropped)",
     "duplicate leaf-cell name in a module");
    ("dup-binding", "warning (repaired: duplicate dropped)",
     "instance binds the same formal port twice");
    ("dangling-binding", "warning (repaired: binding dropped)",
     "instance binds a port the target module does not declare");
    ("bad-area", "warning (repaired: default area restored); error post-elaboration",
     "non-finite or non-positive cell area");
    ("bad-footprint", "error",
     "non-finite or non-positive macro footprint (not repairable)");
    ("missing-module", "error", "instantiated module has no definition");
    ("recursive-module", "error",
     "module instantiates itself (directly or transitively)");
    ("macro-exceeds-die", "warning",
     "a macro is larger than the die in both orientations");
    ("bad-die", "error", "degenerate die rectangle");
    ("non-finite-cost", "error",
     "a floorplan candidate evaluated to NaN/inf cost (caught before SA acceptance, \
      where `NaN < x` would silently reject forever)");
    ("bad-leaf-table", "error",
     "a floorplan instance's leaf lids are not exactly 0..n-1 (duplicate or \
      out-of-range lid), or an expression operand references a missing leaf");
    ("asymmetric-affinity", "error",
     "the affinity matrix disagrees across the diagonal (or holds NaN); the \
      pair scan reads only the upper triangle, so asymmetric weight would be \
      silently dropped");
    ("bad-sa-acceptance", "error",
     "annealing initial_acceptance outside (0, 1): temperature calibration \
      would divide by log(target) = 0 (silent quench) or produce NaN/negative \
      temperatures");
    ("bad-sa-params", "error",
     "an annealing schedule that cannot run: moves_per_plateau below 1, cooling \
      outside (0, 1), negative max_moves, or an initial_temp that is not finite \
      and positive (with no move per plateau and a cooling of 1 the loop would \
      never end)");
    ("ckpt-io", "error",
     "checkpoint directory cannot be created, opened or written");
    ("ckpt-mismatch", "error",
     "the resumed snapshot was written by a different run (circuit, seed, lambda, \
      sa_starts or netlist size differ)");
    ("bad-output-path", "error",
     "a telemetry output path (--trace, --metrics, --qor, --profile-out, \
      --perf-out, --progress-file) cannot be opened for writing; checked before \
      the run starts so a long run never silently loses its telemetry");
    ("serve-socket-busy", "error",
     "hidap serve found a live daemon answering on its socket path and refuses \
      to steal it (a dead leftover socket is probed, unlinked and reused)");
    ("serve-worker-lost", "warning (job retried within its retry budget)",
     "a worker process died without a classified exit (killed, crashed, or \
      watchdog-SIGKILLed for silence); the job's checkpoint store makes the \
      retry resume bit-identically");
    ("serve-rlimit", "error",
     "a worker exhausted its per-job resource limit (--job-mem-mb address \
      space or --job-cpu-s CPU time); deterministic exhaustion, so the job \
      fails without retry") ]

let make ~code ~severity ~stage ?loc message = { code; severity; stage; loc; message }

let error ~code ~stage ?loc message = make ~code ~severity:Error ~stage ?loc message

let warning ~code ~stage ?loc message = make ~code ~severity:Warning ~stage ?loc message

let fail ~code ~stage ?loc message = raise (Fail (error ~code ~stage ?loc message))

let escalate t = match t.severity with Warning -> { t with severity = Error } | _ -> t

let is_error t = t.severity = Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let pp ppf t =
  (match t.loc with
  | Some { file; line; col } ->
    (match file with Some f -> Format.fprintf ppf "%s:" f | None -> ());
    if line > 0 then Format.fprintf ppf "%d:" line;
    if col > 0 then Format.fprintf ppf "%d:" col;
    Format.pp_print_char ppf ' '
  | None -> ());
  Format.fprintf ppf "%s[%s] (%s): %s"
    (severity_to_string t.severity)
    t.code t.stage t.message

let to_string t = Format.asprintf "%a" pp t

let to_json t =
  let loc_json =
    match t.loc with
    | None -> Obs.Jsonx.Null
    | Some { file; line; col } ->
      Obs.Jsonx.Obj
        [ ("file", (match file with Some f -> Obs.Jsonx.String f | None -> Obs.Jsonx.Null));
          ("line", Obs.Jsonx.Int line);
          ("col", Obs.Jsonx.Int col) ]
  in
  Obs.Jsonx.Obj
    [ ("code", Obs.Jsonx.String t.code);
      ("severity", Obs.Jsonx.String (severity_to_string t.severity));
      ("stage", Obs.Jsonx.String t.stage);
      ("loc", loc_json);
      ("message", Obs.Jsonx.String t.message) ]

(* Register a printer so an escaped Fail still renders readably in a
   backtrace instead of an opaque constructor dump. *)
let () =
  Printexc.register_printer (function
    | Fail d -> Some (Printf.sprintf "Guard.Diag.Fail(%s)" (to_string d))
    | _ -> None)
