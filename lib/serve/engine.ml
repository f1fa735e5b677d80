(* The hidap serve daemon engine.

   One process, one domain, many worker processes. The daemon itself
   is a single-domain select loop — accept, framing, request handling,
   progress relay, spawn/reap/watchdog — and every job attempt runs in
   a forked child (Worker.exec) supervised through Pool. That split is
   load-bearing twice over:

   - containment: a job can segfault, OOM, spin forever or be SIGKILLed
     and the daemon only ever observes an exit status and a closed
     pipe; Worker.classify turns every possible death into a verdict
     (done / invalid / timed-out / parked / rlimit-failed / retry);
   - concurrency: Guard.Budget's deadline/cancel cells are process
     globals, which is what forced PR 9 to run jobs serially; a fresh
     process per attempt makes them per-job, so --workers N runs N
     jobs genuinely in parallel.

   The parent must stay fork-safe: OCaml 5 refuses Unix.fork in any
   process that has EVER created a domain, so nothing here may call
   Domain.spawn (children may — Parexec and the stream heartbeat live
   on the other side of the fork).

   Robustness model:
   - admission control: a bounded Jobq; the N+1th submit gets a
     structured backpressure rejection, memory stays bounded;
   - per-job rlimits: --job-mem-mb / --job-cpu-s cap each child's
     address space and CPU; exhaustion is deterministic, so those jobs
     fail with an rlimit classification instead of retrying;
   - per-job deadlines: enforced inside the child (Guard.Budget) with
     a parent-side watchdog backstop that SIGKILLs a child running
     past deadline + grace — a wedged worker cannot hold a slot;
   - hung-job watchdog: the stream heartbeat (0.5 s) makes pipe bytes
     a liveness signal; a child silent past --job-stall-s is killed
     and its job retried with a serve-worker-lost note;
   - retry: transient failures and lost workers re-enqueue with
     deterministic capped exponential backoff up to max_retries;
   - drain: stop admitting; grace for in-flight jobs to finish; then
     SIGTERM (cooperative checkpoint-and-park); then SIGKILL, with the
     job re-pended — undone work always survives on disk;
   - crash recovery: pending/running/parked jobs found in the state
     dir are re-enqueued; Ckpt stores make resumed placements
     bit-identical. A leftover socket is probed: unlinked when dead,
     refused with a structured serve-socket-busy diag when live.

   Engine-level fault sites use *transient* semantics: a spec [site:N]
   fails the first N hits and then heals (flow sites keep their usual
   fire-from-hit-N-on meaning). serve.accept / serve.write fire in the
   parent; serve.worker / serve.worker_kill / serve.worker_hang are
   counted in the parent (per spawn) and executed in the child, which
   is what lets a single spec span retries. DESIGN.md §15. *)

module J = Obs.Jsonx

type config = {
  socket_path : string;
  state_dir : string;
  queue_limit : int;
  workers : int;
  drain_grace_s : float;
  retry_base_s : float;
  retry_cap_s : float;
  max_line_bytes : int;
  default_job_jobs : int;
  job_mem_mb : int option;
  job_cpu_s : int option;
  stall_s : float;
  deadline_grace_s : float;
  faults : Guard.Fault.spec list;
}

let default_config ~socket_path ~state_dir =
  { socket_path; state_dir; queue_limit = 8; workers = 1; drain_grace_s = 5.0;
    retry_base_s = 0.05; retry_cap_s = 2.0; max_line_bytes = 1 lsl 20;
    default_job_jobs = 1; job_mem_mb = None; job_cpu_s = None; stall_s = 30.0;
    deadline_grace_s = 2.0; faults = [] }

(* Single-domain now: plain ints, mutated only from the select loop. *)
type counters = {
  mutable accepted : int;
  mutable rejected_backpressure : int;
  mutable rejected_draining : int;
  mutable completed : int;
  mutable failed : int;
  mutable timed_out : int;
  mutable parked : int;
  mutable retried : int;
  mutable worker_lost : int;
}

type t = {
  cfg : config;
  jobs : (string, Job.t) Hashtbl.t;
  mutable next_seq : int;
  q : Job.t Jobq.t;
  c : counters;
  drain_req : bool Atomic.t;  (* set from the SIGTERM/SIGINT handler *)
  mutable draining : bool;
  (* serve.* specs with persistent cross-job hit counters (transient
     semantics: fire while hits <= nth, then heal). *)
  serve_faults : (Guard.Fault.spec * int ref) array;
  job_faults : Guard.Fault.spec list;  (* flow sites, armed in the child *)
  pool : Pool.t;
  listen_fd : Unix.file_descr;
}

let fault t site =
  Array.iter
    (fun ((spec : Guard.Fault.spec), count) ->
      if spec.Guard.Fault.site = site then begin
        incr count;
        if !count <= spec.Guard.Fault.nth then
          match spec.Guard.Fault.action with
          | Guard.Fault.Raise -> raise (Guard.Fault.Injected { site; hit = !count })
          | Guard.Fault.Stall s -> Unix.sleepf s
      end)
    t.serve_faults

(* Consume one hit of [site]'s spec (if armed and still firing) and
   return its action. Worker-site hits are counted here, per spawn,
   but executed in the child — the parent-side counter is what lets
   one [serve.worker:1] spec fail the first attempt and heal for the
   retry even though each attempt is a fresh process. *)
let fire_spec t site =
  let result = ref None in
  Array.iter
    (fun ((spec : Guard.Fault.spec), count) ->
      if spec.Guard.Fault.site = site && !result = None then begin
        incr count;
        if !count <= spec.Guard.Fault.nth then result := Some spec.Guard.Fault.action
      end)
    t.serve_faults;
  !result

let decide_inject t =
  match fire_spec t "serve.worker_hang" with
  | Some _ -> Worker.Inj_hang
  | None ->
    (match fire_spec t "serve.worker_kill" with
    | Some _ -> Worker.Inj_kill_at_snapshot
    | None ->
      (match fire_spec t "serve.worker" with
      | Some Guard.Fault.Raise -> Worker.Inj_fail
      | Some (Guard.Fault.Stall s) -> Worker.Inj_stall s
      | None -> Worker.Inj_none))

let is_serve_site (spec : Guard.Fault.spec) =
  String.length spec.Guard.Fault.site >= 6
  && String.sub spec.Guard.Fault.site 0 6 = "serve."

let log t fmt =
  ignore t;
  Format.eprintf ("hidap serve: " ^^ fmt ^^ "@.")

(* ---- stale-socket recovery ----------------------------------------- *)

(* A daemon that was kill -9ed leaves its socket file behind; binding
   would fail with EADDRINUSE. Probe it: a live daemon answers the
   connect and must not be robbed of its socket; a dead one refuses,
   and the leftover is safe to unlink. Anything unprobeable (not a
   socket, permissions) is refused too — never delete what we cannot
   prove is ours and dead. *)
let probe_socket path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> `Error (Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Dead
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
        | exception Unix.Unix_error (e, _, _) -> `Error (Unix.error_message e))

let create cfg =
  (* EPIPE must surface as an exception on the write path, never kill
     the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Job.mkdir_p (Filename.concat cfg.state_dir "jobs");
  let serve_specs, job_faults = List.partition is_serve_site cfg.faults in
  if Sys.file_exists cfg.socket_path then begin
    match probe_socket cfg.socket_path with
    | `Live ->
      raise
        (Guard.Diag.Fail
           (Guard.Diag.error ~code:"serve-socket-busy" ~stage:"serve"
              (Printf.sprintf
                 "%s: a live daemon already answers on this socket; refusing \
                  to steal it"
                 cfg.socket_path)))
    | `Error msg ->
      raise
        (Guard.Diag.Fail
           (Guard.Diag.error ~code:"serve-socket-busy" ~stage:"serve"
              (Printf.sprintf
                 "%s: cannot probe the existing socket path (%s); remove it \
                  manually if no daemon owns it"
                 cfg.socket_path msg)))
    | `Dead ->
      Format.eprintf
        "hidap serve: removing stale socket %s (no daemon answered)@."
        cfg.socket_path;
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
    | `Gone -> ()
  end;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 16;
  let t =
    { cfg; jobs = Hashtbl.create 16; next_seq = 1;
      q = Jobq.create ~limit:cfg.queue_limit;
      c =
        { accepted = 0; rejected_backpressure = 0; rejected_draining = 0;
          completed = 0; failed = 0; timed_out = 0; parked = 0; retried = 0;
          worker_lost = 0 };
      drain_req = Atomic.make false; draining = false;
      serve_faults = Array.of_list (List.map (fun s -> (s, ref 0)) serve_specs);
      job_faults;
      pool =
        Pool.create ~size:cfg.workers ~stall_s:cfg.stall_s
          ~deadline_grace_s:cfg.deadline_grace_s;
      listen_fd }
  in
  (* Crash recovery: every job that was pending, running or parked
     when the previous daemon died is re-enqueued as pending. Its
     attempts survive; its checkpoint store makes the resumed
     placement bit-identical. Terminal jobs stay queryable. *)
  List.iter
    (fun (j : Job.t) ->
      Hashtbl.replace t.jobs j.Job.id j;
      if j.Job.seq >= t.next_seq then t.next_seq <- j.Job.seq + 1;
      match j.Job.state with
      | Proto.Pending | Proto.Running | Proto.Parked ->
        let note =
          match j.Job.state with
          | Proto.Running -> "recovered after crash"
          | Proto.Parked -> "resumed after drain"
          | _ -> j.Job.detail
        in
        j.Job.state <- Proto.Pending;
        j.Job.detail <- note;
        Job.save ~state_dir:cfg.state_dir j;
        Jobq.force_push t.q ~priority:j.Job.spec.Proto.priority ~seq:j.Job.seq j
      | Proto.Done | Proto.Failed | Proto.Timed_out -> ())
    (Job.load_all ~state_dir:cfg.state_dir);
  t

let request_drain t = Atomic.set t.drain_req true

let stats t =
  { Proto.queue_depth = Jobq.depth t.q; queue_limit = Jobq.limit t.q;
    accepted = t.c.accepted;
    rejected_backpressure = t.c.rejected_backpressure;
    rejected_draining = t.c.rejected_draining;
    completed = t.c.completed;
    failed = t.c.failed;
    timed_out = t.c.timed_out;
    parked = t.c.parked;
    retried = t.c.retried;
    worker_lost = t.c.worker_lost;
    draining = t.draining;
    workers = Pool.views t.pool ~now:(Unix.gettimeofday ()) }

let backoff_s cfg attempts =
  Float.min cfg.retry_cap_s (cfg.retry_base_s *. (2.0 ** float_of_int (attempts - 1)))

(* ---- connections: framing, requests ------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  mutable watching : string option;
  mutable alive : bool;
}

let drop c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let send t c resp =
  if c.alive then begin
    match
      fault t "serve.write";
      let line = Proto.to_line (Proto.response_to_json resp) ^ "\n" in
      let rec write_all off =
        if off < String.length line then
          let n = Unix.write_substring c.fd line off (String.length line - off) in
          write_all (off + n)
      in
      write_all 0
    with
    | () -> ()
    | exception Guard.Fault.Injected _ ->
      log t "injected write fault; dropping client";
      drop c
    | exception Unix.Unix_error _ -> drop c
  end

let view_of t id = Option.map Job.view (Hashtbl.find_opt t.jobs id)

let job_views t =
  Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs []
  |> List.sort (fun (a : Job.t) b -> compare a.Job.seq b.Job.seq)
  |> List.map Job.view

let set_state t (job : Job.t) state detail =
  job.Job.state <- state;
  job.Job.detail <- detail;
  Job.save ~state_dir:t.cfg.state_dir job

let notify_watchers t conns id =
  match view_of t id with
  | None -> ()
  | Some v ->
    List.iter
      (fun c ->
        if c.alive && c.watching = Some id then begin
          send t c (Proto.Job v);
          if Proto.state_terminal v.Proto.state then c.watching <- None
        end)
      conns

let handle_submit t spec =
  if t.draining || Atomic.get t.drain_req then begin
    t.c.rejected_draining <- t.c.rejected_draining + 1;
    Proto.Rejected
      { reason = "draining"; depth = Jobq.depth t.q; limit = Jobq.limit t.q }
  end
  else
    match (spec.Proto.circuit, spec.Proto.hnl) with
    | Some _, Some _ | None, None ->
      Proto.Error_reply "give exactly one of circuit or hnl"
    | _ ->
      let seq = t.next_seq in
      let job = Job.make ~seq spec in
      (match Jobq.push t.q ~priority:spec.Proto.priority ~seq job with
      | Jobq.Full depth ->
        t.c.rejected_backpressure <- t.c.rejected_backpressure + 1;
        Proto.Rejected { reason = "backpressure"; depth; limit = Jobq.limit t.q }
      | Jobq.Enqueued depth ->
        t.next_seq <- seq + 1;
        Hashtbl.replace t.jobs job.Job.id job;
        Job.save ~state_dir:t.cfg.state_dir job;
        t.c.accepted <- t.c.accepted + 1;
        Proto.Accepted { id = job.Job.id; depth })

let read_file_opt path =
  match open_in_bin path with
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  | exception Sys_error _ -> None

let handle_request t c line =
  match Proto.request_of_line line with
  | Error msg -> send t c (Proto.Error_reply msg)
  | Ok req ->
    (match req with
    | Proto.Ping -> send t c Proto.Pong
    | Proto.Submit spec -> send t c (handle_submit t spec)
    | Proto.Status id ->
      (match view_of t id with
      | Some v -> send t c (Proto.Job v)
      | None -> send t c (Proto.Error_reply (Printf.sprintf "unknown job %s" id)))
    | Proto.List -> send t c (Proto.Jobs (job_views t))
    | Proto.Stats -> send t c (Proto.Stats_reply (stats t))
    | Proto.Result id ->
      (match view_of t id with
      | None -> send t c (Proto.Error_reply (Printf.sprintf "unknown job %s" id))
      | Some v when v.Proto.state <> Proto.Done ->
        send t c
          (Proto.Error_reply
             (Printf.sprintf "job %s is %s, not done" id
                (Proto.state_to_string v.Proto.state)))
      | Some _ ->
        (match
           Option.map J.parse
             (read_file_opt (Job.result_path ~state_dir:t.cfg.state_dir id))
         with
        | Some (Ok qor) -> send t c (Proto.Result_reply { id; qor })
        | Some (Error e) ->
          send t c (Proto.Error_reply (Printf.sprintf "corrupt result: %s" e))
        | None -> send t c (Proto.Error_reply "result file missing")))
    | Proto.Report id ->
      (match read_file_opt (Job.report_path ~state_dir:t.cfg.state_dir id) with
      | Some html -> send t c (Proto.Report_reply { id; html })
      | None ->
        send t c (Proto.Error_reply (Printf.sprintf "no report for job %s" id)))
    | Proto.Watch id ->
      (match view_of t id with
      | None -> send t c (Proto.Error_reply (Printf.sprintf "unknown job %s" id))
      | Some v ->
        send t c (Proto.Job v);
        if not (Proto.state_terminal v.Proto.state) then c.watching <- Some id)
    | Proto.Drain ->
      request_drain t;
      send t c Proto.Draining_reply)

(* Split buffered bytes into complete lines; the remainder stays. *)
let take_lines buf =
  let data = Buffer.contents buf in
  Buffer.clear buf;
  let rec go start acc =
    match String.index_from_opt data start '\n' with
    | Some i -> go (i + 1) (String.sub data start (i - start) :: acc)
    | None ->
      Buffer.add_substring buf data start (String.length data - start);
      List.rev acc
  in
  go 0 []

let feed_conn t c chunk =
  Buffer.add_string c.rbuf chunk;
  let lines = take_lines c.rbuf in
  List.iter
    (fun line ->
      if c.alive then
        if String.length line > t.cfg.max_line_bytes then begin
          send t c
            (Proto.Error_reply
               (Printf.sprintf "line exceeds %d bytes" t.cfg.max_line_bytes));
          drop c
        end
        else if line <> "" then handle_request t c line)
    lines;
  (* An unterminated line larger than the bound can never complete
     legally: reject it without buffering unbounded garbage. *)
  if c.alive && Buffer.length c.rbuf > t.cfg.max_line_bytes then begin
    send t c
      (Proto.Error_reply
         (Printf.sprintf "line exceeds %d bytes" t.cfg.max_line_bytes));
    drop c
  end

(* ---- job lifecycle (spawn / verdict) ------------------------------- *)

(* Every child NDJSON line reaches the watchers of its job — the
   per-worker pipes make tagging trivial (PR 9 needed in-band
   job-start/job-end markers on one shared pipe). *)
let relay_event t conns (job : Job.t) event =
  List.iter
    (fun c ->
      if c.alive && c.watching = Some job.Job.id then
        send t c (Proto.Progress { id = job.Job.id; event }))
    conns

let retry_or_fail t conns (job : Job.t) msg =
  if job.Job.attempts <= job.Job.spec.Proto.max_retries then begin
    let delay = backoff_s t.cfg job.Job.attempts in
    set_state t job Proto.Pending
      (Printf.sprintf "attempt %d failed (%s); retrying in %gs" job.Job.attempts
         msg delay);
    t.c.retried <- t.c.retried + 1;
    Jobq.force_push t.q ~priority:job.Job.spec.Proto.priority ~seq:job.Job.seq
      ~ready_s:(Unix.gettimeofday () +. delay)
      job
  end
  else begin
    set_state t job Proto.Failed
      (Printf.sprintf "failed after %d attempt%s: %s" job.Job.attempts
         (if job.Job.attempts = 1 then "" else "s")
         msg);
    t.c.failed <- t.c.failed + 1
  end;
  notify_watchers t conns job.Job.id

let start_job t conns (job : Job.t) =
  job.Job.state <- Proto.Running;
  job.Job.attempts <- job.Job.attempts + 1;
  Job.save ~state_dir:t.cfg.state_dir job;
  let inject = decide_inject t in
  let extra_close =
    t.listen_fd
    :: List.filter_map (fun c -> if c.alive then Some c.fd else None) conns
  in
  match
    Pool.spawn t.pool ~job ~extra_close ~child:(fun ~pipe_w ~close_fds ->
        Worker.exec ~state_dir:t.cfg.state_dir
          ~default_job_jobs:t.cfg.default_job_jobs ~flow_faults:t.job_faults
          ~mem_mb:t.cfg.job_mem_mb ~cpu_s:t.cfg.job_cpu_s ~inject ~job ~pipe_w
          ~close_fds)
  with
  | Pool.Spawned _ -> notify_watchers t conns job.Job.id
  | Pool.No_slot ->
    (* cannot happen — the fill loop checked idle_slots — but stay
       total: count the attempt and let the retry budget decide *)
    retry_or_fail t conns job "no worker slot free"
  | Pool.Fork_failed msg ->
    (* transient resource exhaustion (EAGAIN/EMFILE): the attempt
       never started, retry within the budget *)
    log t "spawn for %s failed: %s" job.Job.id msg;
    retry_or_fail t conns job (Printf.sprintf "fork failed (%s)" msg)

(* Fill free worker slots from the queue. Backing-off entries are
   simply not ready yet; the next tick polls again. *)
let rec fill t conns =
  if (not t.draining) && Pool.idle_slots t.pool > 0 then
    match Jobq.try_pop t.q with
    | None -> ()
    | Some job ->
      start_job t conns job;
      fill t conns

let finish_worker t conns (r : Pool.running) =
  let job = r.job in
  if r.drain_killed then begin
    (* The hard drain phase killed it: not a failure of the job, just
       of this daemon's patience. Re-pend; the checkpoint store makes
       the next daemon's resume bit-identical. *)
    set_state t job Proto.Parked
      "drain killed the worker; restart resumes from its last checkpoint";
    t.c.parked <- t.c.parked + 1;
    t.c.worker_lost <- t.c.worker_lost + 1;
    notify_watchers t conns job.Job.id
  end
  else begin
    let status = Option.value ~default:(Unix.WEXITED 127) r.status in
    match
      Worker.classify status ~frame:r.frame ~killed:r.killed
        ~mem_limited:(t.cfg.job_mem_mb <> None) ~attempt:job.Job.attempts
    with
    | Worker.Done ->
      (* keep recovery provenance visible on the terminal view; anything
         else (retry notes) is stale once the job completed *)
      let note =
        match job.Job.detail with
        | ("recovered after crash" | "resumed after drain") as d -> d
        | _ -> ""
      in
      set_state t job Proto.Done note;
      (* A done job never runs again and [job.json] now holds its spec,
         so the daemon lets go of the netlist text: kept, it grew the
         daemon, and every worker forked from it, by one netlist per
         job served. *)
      job.Job.spec <- { job.Job.spec with Proto.hnl = None };
      t.c.completed <- t.c.completed + 1;
      notify_watchers t conns job.Job.id
    | Worker.Invalid msg ->
      (* A job the flow can never run is failed outright: retrying an
         unknown circuit or unparsable netlist cannot help. *)
      set_state t job Proto.Failed ("invalid job: " ^ msg);
      t.c.failed <- t.c.failed + 1;
      notify_watchers t conns job.Job.id
    | Worker.Timed_out msg ->
      set_state t job Proto.Timed_out msg;
      t.c.timed_out <- t.c.timed_out + 1;
      if r.killed <> None then t.c.worker_lost <- t.c.worker_lost + 1;
      notify_watchers t conns job.Job.id
    | Worker.Parked msg ->
      set_state t job Proto.Parked msg;
      t.c.parked <- t.c.parked + 1;
      notify_watchers t conns job.Job.id
    | Worker.Rlimit msg ->
      (* Resource exhaustion under an explicit limit is deterministic:
         the same job would exhaust it again, so no retry. *)
      set_state t job Proto.Failed msg;
      t.c.failed <- t.c.failed + 1;
      notify_watchers t conns job.Job.id
    | Worker.Transient msg -> retry_or_fail t conns job msg
    | Worker.Lost msg ->
      t.c.worker_lost <- t.c.worker_lost + 1;
      log t "worker pid %d lost (%s)" r.pid msg;
      retry_or_fail t conns job msg
  end

(* ---- main loop ----------------------------------------------------- *)

let accept_client t conns =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error (e, _, _) ->
    log t "accept failed: %s; still serving" (Unix.error_message e)
  | fd, _ ->
    (match fault t "serve.accept" with
    | () ->
      conns :=
        { fd; rbuf = Buffer.create 256; watching = None; alive = true } :: !conns
    | exception Guard.Fault.Injected _ ->
      (* The accept path failed: this client is lost, the daemon keeps
         serving everyone else. *)
      log t "injected accept fault; dropping client";
      (try Unix.close fd with Unix.Unix_error _ -> ()))

(* Drain escalation: Graceful (let in-flight jobs finish) → Term
   (SIGTERM: checkpoint and park) → Kill (SIGKILL: re-pend). Each
   phase gets the configured grace window. *)
type drain_phase = Serving | Graceful of float | Terming of float | Killing

let run t =
  let conns = ref [] in
  let phase = ref Serving in
  let buf = Bytes.create 65536 in
  let cleanup () =
    List.iter drop !conns;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  in
  let on_event job event = relay_event t !conns job event in
  let rec loop () =
    let now = Unix.gettimeofday () in
    (match !phase with
    | Serving ->
      if Atomic.get t.drain_req then begin
        t.draining <- true;
        log t "draining: no longer accepting jobs";
        Jobq.close t.q;
        phase := Graceful (now +. t.cfg.drain_grace_s)
      end
    | Graceful dl when now > dl ->
      if Pool.busy t.pool then begin
        log t "drain grace expired: asking workers to checkpoint and park";
        Pool.term_all t.pool
      end;
      phase := Terming (now +. t.cfg.drain_grace_s)
    | Terming dl when now > dl ->
      if Pool.busy t.pool then begin
        log t "drain: killing workers that did not park; their jobs re-pend";
        Pool.kill_all t.pool
      end;
      phase := Killing
    | Graceful _ | Terming _ | Killing -> ());
    List.iter
      (fun ((job : Job.t), reason) ->
        match reason with
        | Worker.Kill_deadline d ->
          log t "watchdog: killing %s's worker, %gs past its %gs deadline"
            job.Job.id t.cfg.deadline_grace_s d
        | Worker.Kill_hang s ->
          log t "watchdog: killing %s's worker, silent for %gs" job.Job.id s)
      (Pool.watchdog t.pool ~now);
    List.iter (finish_worker t !conns) (Pool.reap t.pool ~on_event);
    fill t !conns;
    if t.draining && (not (Pool.busy t.pool)) then cleanup ()
    else begin
      let pipe_fds = Pool.pipe_fds t.pool in
      let fds =
        (t.listen_fd :: pipe_fds)
        @ List.filter_map (fun c -> if c.alive then Some c.fd else None) !conns
      in
      (match Unix.select fds [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then accept_client t conns
            else
              match List.find_opt (fun c -> c.fd = fd && c.alive) !conns with
              | Some c ->
                (match Unix.read c.fd buf 0 (Bytes.length buf) with
                | 0 -> drop c
                | n -> feed_conn t c (Bytes.sub_string buf 0 n)
                | exception Unix.Unix_error _ -> drop c)
              | None -> Pool.handle_readable t.pool fd ~on_event)
          ready);
      conns := List.filter (fun c -> c.alive) !conns;
      loop ()
    end
  in
  loop ()
