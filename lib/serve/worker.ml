(* One job attempt inside a forked worker process.

   The daemon forks (no exec) a child per attempt; this module is the
   child's whole life. Containment comes from the OS, not from OCaml
   discipline: address-space and CPU rlimits bound the job, a
   parent-death signal reaps orphans if the daemon is SIGKILLed, and
   the only channels back to the daemon are the progress pipe (the
   Obs.Stream NDJSON feed plus one final [job-attempt-end] status
   frame) and the exit status. A worker can die any way at all —
   clean, nonzero, signaled, rlimit-killed, silently hung — and
   {!classify} maps every one of those ends to a verdict the engine
   applies.

   Being a fresh process also makes Guard.Budget's process-global
   deadline/cancel cells per-job again: the very thing that forced
   PR 9's engine to run jobs serially now falls out of fork, and jobs
   run genuinely concurrently. *)

module J = Obs.Jsonx

external rlimit_as : int -> unit = "hidap_serve_rlimit_as"

external rlimit_cpu : int -> unit = "hidap_serve_rlimit_cpu"

external pdeathsig : unit -> unit = "hidap_serve_pdeathsig"

(* ---- exit-code protocol ------------------------------------------- *)

(* Classified self-reported ends live in the sysexits-style 64+ range
   so they can never collide with a library calling exit 1/2 on us. *)
let exit_done = 0

let exit_invalid = 64

let exit_timed_out = 65

let exit_parked = 66

let exit_transient = 67

let exit_oom = 68

(* ---- fault injection ----------------------------------------------- *)

(* The parent decides (from its persistent serve.* hit counters)
   whether this attempt is sabotaged and how; the decision rides into
   the child through forked memory. *)
type inject =
  | Inj_none
  | Inj_fail  (** serve.worker Raise: die at attempt start (transient) *)
  | Inj_stall of float  (** serve.worker Stall: a slow job, not a dead one *)
  | Inj_kill_at_snapshot
      (** serve.worker_kill (either action): self-SIGKILL right after the
          attempt writes its first checkpoint snapshot *)
  | Inj_hang  (** serve.worker_hang: silent forever; only the watchdog ends it *)

(* ---- exit classification (parent side, pure) ----------------------- *)

type kill_reason =
  | Kill_deadline of float  (** watchdog: ran past the job deadline *)
  | Kill_hang of float  (** watchdog: no pipe bytes for this many seconds *)

type verdict =
  | Done
  | Invalid of string
  | Timed_out of string
  | Parked of string
  | Rlimit of string  (** resource exhaustion is deterministic: fail, no retry *)
  | Transient of string  (** classified failure: retry within the budget *)
  | Lost of string  (** unclassified death: retry, counted as worker-lost *)

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigxcpu then "SIGXCPU"
  else if s = Sys.sigxfsz then "SIGXFSZ"
  else Printf.sprintf "signal %d" s

(* Map how the worker ended to what happens to its job. [frame] is the
   final status frame if one arrived on the pipe — preferred, because
   the child knows why it died; the fallbacks cover deaths too sudden
   to leave one. [killed] records a watchdog SIGKILL, which outranks
   the exit status (a SIGKILLed child always reports WSIGNALED, but
   the reason lives in the parent). [mem_limited] marks an armed
   address-space rlimit: exhaustion usually surfaces as a clean
   Out_of_memory (exit 68), but an allocation failing inside the
   runtime or a domain is fatal — SIGABRT or a fatal-error exit with
   nothing on the pipe — and under an explicit limit that death is
   the limit's doing, so it classifies as rlimit, not lost. *)
let runtime_fatal_exit c = c = 125 || c = 2

let classify status ~frame ~killed ~mem_limited ~attempt =
  let detail default =
    match frame with Some (_, d) when d <> "" -> d | _ -> default
  in
  match killed with
  | Some (Kill_deadline d) ->
    Timed_out
      (Printf.sprintf
         "serve-worker-lost: watchdog killed the worker past its %gs deadline \
          on attempt %d"
         d attempt)
  | Some (Kill_hang s) ->
    Lost
      (Printf.sprintf
         "serve-worker-lost: no progress for %gs; watchdog killed the worker \
          on attempt %d"
         s attempt)
  | None ->
    (match status with
    | Unix.WEXITED c when c = exit_done -> Done
    | Unix.WEXITED c when c = exit_invalid -> Invalid (detail "invalid job")
    | Unix.WEXITED c when c = exit_timed_out ->
      Timed_out (detail (Printf.sprintf "deadline exceeded on attempt %d" attempt))
    | Unix.WEXITED c when c = exit_parked ->
      Parked (detail "parked by drain; restart resumes it")
    | Unix.WEXITED c when c = exit_oom ->
      Rlimit
        (detail
           (Printf.sprintf "rlimit: address-space limit exhausted on attempt %d"
              attempt))
    | Unix.WEXITED c when c = exit_transient -> Transient (detail "transient failure")
    | Unix.WEXITED c when mem_limited && frame = None && runtime_fatal_exit c ->
      Rlimit
        (Printf.sprintf
           "rlimit: address-space limit exhausted on attempt %d (runtime fatal \
            exit %d)"
           attempt c)
    | Unix.WEXITED c ->
      Lost
        (Printf.sprintf
           "serve-worker-lost: worker exited with unexpected status %d on \
            attempt %d"
           c attempt)
    | Unix.WSIGNALED s when s = Sys.sigxcpu ->
      Rlimit
        (Printf.sprintf "rlimit: CPU-time limit exhausted on attempt %d (SIGXCPU)"
           attempt)
    | Unix.WSIGNALED s when mem_limited && frame = None && s = Sys.sigabrt ->
      Rlimit
        (Printf.sprintf
           "rlimit: address-space limit exhausted on attempt %d (runtime abort)"
           attempt)
    | Unix.WSIGNALED s ->
      Lost
        (Printf.sprintf "serve-worker-lost: worker killed by %s on attempt %d"
           (signal_name s) attempt)
    | Unix.WSTOPPED s ->
      Lost
        (Printf.sprintf "serve-worker-lost: worker stopped by %s on attempt %d"
           (signal_name s) attempt))

(* ---- the job flow (runs only in the child) ------------------------- *)

exception Invalid_job of string

let design_of_spec (spec : Proto.submit) =
  match (spec.Proto.circuit, spec.Proto.hnl) with
  | Some name, None ->
    (match Circuitgen.Suite.find name with
    | Some c -> (name, Circuitgen.Gen.generate c.Circuitgen.Suite.params)
    | None -> raise (Invalid_job (Printf.sprintf "unknown suite circuit %s" name)))
  | None, Some text ->
    let name = if spec.Proto.label <> "" then spec.Proto.label else "inline" in
    (match Hnl.Parser.parse_string text with
    | Ok d -> (name, d)
    | Error { Hnl.Parser.line; col; message } ->
      raise (Invalid_job (Printf.sprintf "hnl:%d:%d: %s" line col message)))
  | Some _, Some _ | None, None ->
    raise (Invalid_job "give exactly one of circuit or hnl")

let run_attempt ~state_dir ~default_job_jobs ~flow_faults ~on_snapshot (job : Job.t) =
  let spec = job.Job.spec in
  let name, design = design_of_spec spec in
  let design =
    match Guard.Validate.design ~strict:false design with
    | Ok r -> r.Guard.Validate.design
    | Error diags ->
      raise
        (Invalid_job
           (String.concat "; "
              (List.map (fun d -> Format.asprintf "%a" Guard.Diag.pp d) diags)))
  in
  let flat =
    try Netlist.Flat.elaborate design
    with Invalid_argument msg -> raise (Invalid_job msg)
  in
  let config =
    { Hidap.Config.default with
      Hidap.Config.seed = spec.Proto.seed;
      jobs = (if spec.Proto.jobs <= 0 then default_job_jobs else spec.Proto.jobs);
      faults = flow_faults }
  in
  let config =
    match spec.Proto.lambda with
    | Some l -> Hidap.Config.with_lambda config l
    | None -> config
  in
  let die = Hidap.die_for flat ~config in
  let ckdir = Job.ckpt_dir ~state_dir job.Job.id in
  Job.mkdir_p ckdir;
  let ckpt = { Qor.Run.dir = ckdir; every = 1; resume = true; on_save = on_snapshot } in
  (* The deadline is per attempt: each retry gets the full window. The
     budget cells are process-global but the process is ours alone. A
     drain's cancellation unwinds out of [Qor.Run.place] after it
     parked the job on a final snapshot, so the next daemon resumes it
     bit-identically. *)
  Option.iter Guard.Budget.set_deadline spec.Proto.deadline_s;
  Fun.protect ~finally:Guard.Budget.clear_deadline @@ fun () ->
  match Qor.Run.place ~circuit:name ~config ~die ~ckpt ~measure:true flat with
  | Error d -> raise (Invalid_job (Format.asprintf "%a" Guard.Diag.pp d))
  | Ok p ->
    let record =
      Qor.Record.of_place ~circuit:name ~flat ~config
        ~degradations:p.Qor.Run.degradations ~measured:(Option.get p.Qor.Run.measured)
        ?ckpt:p.Qor.Run.ckpt_summary p.Qor.Run.result
    in
    Qor.Record.write_ledger (Job.result_path ~state_dir job.Job.id) [ record ];
    Qor.Html.write_file
      (Job.report_path ~state_dir job.Job.id)
      (Qor.Html.render ~title:(Printf.sprintf "hidap serve — %s" job.Job.id)
         [ record ])

(* ---- child main ----------------------------------------------------- *)

let redirect_stdio path =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 with
  | fd ->
    Unix.dup2 fd Unix.stdout;
    Unix.dup2 fd Unix.stderr;
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let exec ~state_dir ~default_job_jobs ~flow_faults ~mem_mb ~cpu_s ~inject
    ~(job : Job.t) ~pipe_w ~close_fds =
  pdeathsig ();
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) close_fds;
  (* Drain reaches a worker as SIGTERM: cooperative cancellation, so
     the flow checkpoints and parks instead of dying mid-move. The
     parent's own SIGTERM/SIGINT handlers (drain request) are replaced
     — they capture the parent's engine and mean nothing here. *)
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Guard.Budget.request_cancel ()));
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore with Invalid_argument _ -> ());
  Guard.Budget.clear_cancel ();
  Guard.Budget.clear_deadline ();
  redirect_stdio (Filename.concat (Job.dir ~state_dir job.Job.id) "worker.log");
  (match mem_mb with Some mb -> rlimit_as (mb * 1024 * 1024) | None -> ());
  (match cpu_s with Some s -> rlimit_cpu s | None -> ());
  (match inject with
  | Inj_hang ->
    (* Silent forever — not one stream byte. Only the parent's
       watchdog can end this attempt, which is exactly what the
       serve.worker_hang fault exists to prove. *)
    while true do
      Unix.sleepf 3600.0
    done
  | _ -> ());
  Obs.Stream.enable ~heartbeat_s:0.5 ~close_on_disable:true
    (Unix.out_channel_of_descr pipe_w);
  Obs.Stream.emit "job-attempt"
    [ ("id", J.String job.Job.id); ("attempt", J.Int job.Job.attempts) ];
  let finish code outcome detail =
    (try
       Obs.Stream.emit "job-attempt-end"
         [ ("id", J.String job.Job.id); ("attempt", J.Int job.Job.attempts);
           ("outcome", J.String outcome); ("detail", J.String detail) ]
     with _ -> ());
    (try Obs.Stream.disable () with _ -> ());
    Stdlib.exit code
  in
  match
    (match inject with
    | Inj_fail ->
      raise (Guard.Fault.Injected { site = "serve.worker"; hit = job.Job.attempts })
    | Inj_stall s -> Unix.sleepf s
    | _ -> ());
    let on_snapshot =
      match inject with
      | Inj_kill_at_snapshot -> fun () -> Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ignore
    in
    run_attempt ~state_dir ~default_job_jobs ~flow_faults ~on_snapshot job
  with
  | () -> finish exit_done "done" ""
  | exception Guard.Budget.Deadline { deadline_s } ->
    finish exit_timed_out "timed-out"
      (Printf.sprintf "deadline %gs exceeded on attempt %d" deadline_s
         job.Job.attempts)
  | exception Guard.Budget.Cancelled _ ->
    finish exit_parked "parked" "parked by drain; restart resumes it"
  | exception Invalid_job msg -> finish exit_invalid "invalid" msg
  | exception Out_of_memory ->
    finish exit_oom "rlimit"
      (match mem_mb with
      | Some mb ->
        Printf.sprintf "rlimit: address-space limit of %d MB exhausted on attempt %d"
          mb job.Job.attempts
      | None -> Printf.sprintf "rlimit: out of memory on attempt %d" job.Job.attempts)
  | exception e -> finish exit_transient "transient" (Printexc.to_string e)
