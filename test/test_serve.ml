(* lib/serve: protocol round-trips and fuzz, job-queue semantics,
   worker exit classification, and end-to-end daemon robustness —
   deadline, backpressure, retry, worker crash/hang containment,
   rlimits, multi-client stress, drain/park/resume, crash recovery,
   stale-socket recovery — against real `hidap serve` daemon
   subprocesses talking over Unix sockets.

   The daemons must be subprocesses, not in-process engines: the serve
   engine forks a worker per job attempt, and OCaml 5 refuses
   Unix.fork in any process that has ever created a domain — which
   this test binary does. Unix.create_process (posix_spawn-based) is
   unaffected. *)

module P = Serve.Proto
module J = Obs.Jsonx
module Jobq = Serve.Jobq
module Worker = Serve.Worker

(* A daemon dying under a client must surface as a typed Conn error,
   not kill this test binary with SIGPIPE. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ---- fixtures ----------------------------------------------------- *)

(* fig1 as inline HNL text: the smallest design the flow places, so
   daemon jobs stay fast. *)
let fig1_hnl = lazy (Hnl.Printer.to_string (Circuitgen.Suite.fig1_design ()))

let fig1_submit ?(seed = 1) ?(priority = 0) ?deadline_s ?(max_retries = 0)
    ?(label = "fig1") () =
  { P.default_submit with
    P.hnl = Some (Lazy.force fig1_hnl); seed; priority; deadline_s; max_retries;
    label }

let c1_submit ?(label = "c1") () =
  { P.default_submit with P.circuit = Some "c1"; label }

let c5_submit ?(max_retries = 0) ?(label = "c5") () =
  { P.default_submit with P.circuit = Some "c5"; max_retries; label }

(* A case's scratch dir (daemon socket, log and state dir), removed
   with everything in it when the case ends. Short: Unix socket paths
   are capped around 100 bytes, so it lives directly under the system
   temp dir. *)
let with_scratch f =
  Tmp_dir.with_dir "hidap-serve" @@ fun dir ->
  Unix.mkdir dir 0o755;
  f dir

(* The real CLI binary, located relative to this test executable:
   _build/default/test/main.exe -> _build/default/bin/hidap_cli.exe.
   The dune rule declares the dependency so it is always built. *)
let cli =
  lazy
    (let p =
       Filename.concat
         (Filename.dirname (Filename.dirname Sys.executable_name))
         (Filename.concat "bin" "hidap_cli.exe")
     in
     if not (Sys.file_exists p) then
       Alcotest.failf "hidap_cli.exe not found at %s" p;
     p)

type daemon = { pid : int; sock : string; state_dir : string; log : string }

let dump_log d =
  match open_in d.log with
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  | exception Sys_error _ -> "<no log>"

let start ?(workers = 1) ?(queue_limit = 8) ?(drain_grace_s = 5.0)
    ?(retry_base_s = 0.005) ?max_line_bytes ?job_stall_s ?job_mem_mb ?job_cpu_s
    ?fault dir =
  let sock = Filename.concat dir "s.sock" in
  let state_dir = Filename.concat dir "state" in
  let log = Filename.concat dir "serve.log" in
  let opt flag v f = match v with None -> [] | Some x -> [ flag; f x ] in
  let args =
    [ Lazy.force cli; "serve"; "--socket"; sock; "--state-dir"; state_dir;
      "--workers"; string_of_int workers; "--queue-limit";
      string_of_int queue_limit; "--drain-grace"; string_of_float drain_grace_s;
      "--retry-base"; string_of_float retry_base_s ]
    @ opt "--max-line-bytes" max_line_bytes string_of_int
    @ opt "--job-stall-s" job_stall_s string_of_float
    @ opt "--job-mem-mb" job_mem_mb string_of_int
    @ opt "--job-cpu-s" job_cpu_s string_of_int
  in
  let env =
    Array.of_list
      ((match fault with None -> [] | Some f -> [ "HIDAP_FAULT=" ^ f ])
      @ (Array.to_list (Unix.environment ())
        |> List.filter (fun kv ->
               not (String.length kv >= 12 && String.sub kv 0 12 = "HIDAP_FAULT="))
        ))
  in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env (Lazy.force cli) (Array.of_list args) env Unix.stdin
      logfd logfd
  in
  Unix.close logfd;
  let d = { pid; sock; state_dir; log } in
  (* wait for the daemon to answer *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec poll () =
    match Serve.Client.connect ~socket_path:sock with
    | cl ->
      (match Serve.Client.ping cl with
      | Ok () -> Serve.Client.close cl
      | Error _ ->
        Serve.Client.close cl;
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "daemon never answered ping:\n%s" (dump_log d);
        Unix.sleepf 0.02;
        poll ())
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> Alcotest.failf "daemon died during startup:\n%s" (dump_log d));
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "daemon never came up:\n%s" (dump_log d);
      Unix.sleepf 0.02;
      poll ()
  in
  poll ();
  d

(* Wait for the daemon process to exit; SIGKILL + fail past the bound. *)
let wait_exit ?(timeout_s = 60.0) d =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        Alcotest.failf "daemon did not exit within %gs:\n%s" timeout_s
          (dump_log d)
      end
      else begin
        Unix.sleepf 0.02;
        go ()
      end
    | _, st -> st
  in
  go ()

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match wait_exit d with
  | Unix.WEXITED 0 -> ()
  | st ->
    let s =
      match st with
      | Unix.WEXITED c -> Printf.sprintf "exit %d" c
      | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
      | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s
    in
    Alcotest.failf "daemon drain ended with %s:\n%s" s (dump_log d)

let kill9 d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit d)

let connect d = Serve.Client.connect ~socket_path:d.sock

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Serve.Client.error_message e)

let submit_ok cl spec =
  match ok (Serve.Client.submit cl spec) with
  | `Accepted (id, _) -> id
  | `Rejected (reason, _, _) -> Alcotest.failf "unexpected rejection: %s" reason

let wait_state ?timeout_s cl id = (ok (Serve.Client.wait ?timeout_s cl id)).P.state

(* ---- protocol ----------------------------------------------------- *)

let test_proto_request_roundtrip () =
  let reqs =
    [ P.Ping; P.Submit (fig1_submit ~seed:7 ~priority:3 ~deadline_s:1.5 ());
      P.Submit (c1_submit ()); P.Status "j0001"; P.List; P.Stats;
      P.Result "j0002"; P.Report "j0003"; P.Watch "j0004"; P.Drain ]
  in
  List.iter
    (fun r ->
      match P.request_of_json (P.request_to_json r) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    reqs

let test_proto_response_roundtrip () =
  let view =
    { P.id = "j0001"; label = "x"; state = P.Timed_out; attempts = 2;
      priority = 1; detail = "deadline 0.5s" }
  in
  let stats =
    { P.queue_depth = 1; queue_limit = 8; accepted = 3; rejected_backpressure = 1;
      rejected_draining = 0; completed = 2; failed = 0; timed_out = 1; parked = 0;
      retried = 1; worker_lost = 1; draining = false;
      workers =
        [ { P.slot = 0; pid = Some 4242; job = Some "j0002"; elapsed_s = 1.5 };
          { P.slot = 1; pid = None; job = None; elapsed_s = 0.0 } ] }
  in
  let resps =
    [ P.Pong; P.Accepted { id = "j0001"; depth = 2 };
      P.Rejected { reason = "backpressure"; depth = 8; limit = 8 }; P.Job view;
      P.Jobs [ view; { view with P.id = "j0002"; state = P.Running } ];
      P.Stats_reply stats;
      P.Result_reply { id = "j0001"; qor = J.Obj [ ("k", J.Int 1) ] };
      P.Report_reply { id = "j0001"; html = "<html>&\"</html>" };
      P.Progress { id = "j0001"; event = J.Obj [ ("event", J.String "x") ] };
      P.Draining_reply; P.Error_reply "nope" ]
  in
  List.iter
    (fun r ->
      match P.response_of_json (P.response_to_json r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    resps;
  (* every state has a stable wire name *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "state round-trips" true
        (P.state_of_string (P.state_to_string s) = Some s))
    [ P.Pending; P.Running; P.Done; P.Failed; P.Timed_out; P.Parked ]

let test_proto_envelope () =
  let reject line =
    match P.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad envelope: %s" line
  in
  reject {|{"schema":"wrong","version":1,"req":"ping"}|};
  reject {|{"schema":"hidap-serve","version":99,"req":"ping"}|};
  reject {|{"schema":"hidap-serve","version":1}|};
  reject {|{"schema":"hidap-serve","version":1,"req":"no-such-request"}|};
  reject "not json at all";
  reject "";
  match P.request_of_line {|{"schema":"hidap-serve","version":1,"req":"ping"}|} with
  | Ok P.Ping -> ()
  | _ -> Alcotest.fail "minimal ping refused"

(* Byte-level garbage must always come back as [Error _] — decoding is
   total because the daemon feeds raw client input through it. *)
let test_proto_decode_total () =
  let rng = Util.Rng.create 0x5E41 in
  let good = P.to_line (P.request_to_json (P.Submit (fig1_submit ()))) in
  for _ = 1 to 300 do
    let b = Bytes.of_string good in
    for _ = 0 to Util.Rng.int rng 6 do
      Bytes.set b
        (Util.Rng.int rng (Bytes.length b))
        (Char.chr (Util.Rng.int rng 256))
    done;
    let s = Bytes.to_string b in
    let s =
      if Util.Rng.int rng 3 = 0 then
        String.sub s 0 (Util.Rng.int rng (String.length s))
      else s
    in
    (match P.request_of_line s with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "request_of_line raised %s" (Printexc.to_string e));
    match P.response_of_line s with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "response_of_line raised %s" (Printexc.to_string e)
  done

(* ---- job queue ---------------------------------------------------- *)

let test_jobq_admission () =
  let q = Jobq.create ~limit:2 in
  (match Jobq.push q ~priority:0 ~seq:1 "a" with
  | Jobq.Enqueued 1 -> ()
  | _ -> Alcotest.fail "first push");
  (match Jobq.push q ~priority:0 ~seq:2 "b" with
  | Jobq.Enqueued 2 -> ()
  | _ -> Alcotest.fail "second push");
  (match Jobq.push q ~priority:9 ~seq:3 "c" with
  | Jobq.Full 2 -> ()
  | _ -> Alcotest.fail "push past the bound must be refused");
  (* retries re-enter past the bound *)
  Jobq.force_push q ~priority:0 ~seq:4 "d";
  Alcotest.(check int) "forced depth" 3 (Jobq.depth q)

let test_jobq_ordering () =
  let q = Jobq.create ~limit:10 in
  ignore (Jobq.push q ~priority:0 ~seq:1 "low-first");
  ignore (Jobq.push q ~priority:5 ~seq:2 "high-a");
  ignore (Jobq.push q ~priority:5 ~seq:3 "high-b");
  ignore (Jobq.push q ~priority:0 ~seq:4 "low-second");
  let order = List.init 4 (fun _ -> Option.get (Jobq.try_pop q)) in
  Alcotest.(check (list string))
    "priority desc, FIFO within a priority"
    [ "high-a"; "high-b"; "low-first"; "low-second" ]
    order

let test_jobq_backoff () =
  let q = Jobq.create ~limit:4 in
  Jobq.force_push q ~priority:0 ~seq:1 ~ready_s:(Unix.gettimeofday () +. 0.15) "later";
  ignore (Jobq.push q ~priority:0 ~seq:2 "now");
  Alcotest.(check (option string)) "eligible entry first" (Some "now") (Jobq.try_pop q);
  Alcotest.(check (option string)) "backed-off entry held" None (Jobq.try_pop q);
  Unix.sleepf 0.2;
  Alcotest.(check (option string)) "handed out after its ready time" (Some "later")
    (Jobq.try_pop q)

(* try_pop is the select loop's non-blocking variant: it must never
   wait, handing back None when only backing-off entries exist. *)
let test_jobq_try_pop () =
  let q = Jobq.create ~limit:4 in
  Alcotest.(check bool) "empty -> None" true (Jobq.try_pop q = None);
  ignore (Jobq.push q ~priority:0 ~seq:1 "now");
  Jobq.force_push q ~priority:9 ~seq:2
    ~ready_s:(Unix.gettimeofday () +. 0.2)
    "later";
  Alcotest.(check (option string)) "ready entry pops" (Some "now")
    (Jobq.try_pop q);
  let t0 = Unix.gettimeofday () in
  let r = Jobq.try_pop q in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check (option string)) "backing-off entry is not ready" None r;
  Alcotest.(check bool) "try_pop did not block" true (dt < 0.1);
  Unix.sleepf 0.25;
  Alcotest.(check (option string)) "ready after its backoff" (Some "later")
    (Jobq.try_pop q);
  Jobq.close q;
  ignore (Jobq.push q ~priority:0 ~seq:3 "x");
  Alcotest.(check bool) "closed -> None" true (Jobq.try_pop q = None)

let test_jobq_close_drains () =
  let q = Jobq.create ~limit:4 in
  ignore (Jobq.push q ~priority:0 ~seq:1 "left-behind");
  Jobq.close q;
  (match Jobq.push q ~priority:0 ~seq:2 "refused" with
  | Jobq.Full _ -> ()
  | Jobq.Enqueued _ -> Alcotest.fail "closed queue accepted a push");
  Alcotest.(check bool) "pop on closed queue is None (drain)" true
    (Jobq.try_pop q = None)

(* ---- worker exit classification ----------------------------------- *)

(* classify is the daemon's whole theory of worker death: total over
   process statuses, watchdog kills outrank statuses, rlimit deaths
   never retry. *)
let test_worker_classify () =
  let cl ?(frame = None) ?(killed = None) ?(mem_limited = false) st =
    Worker.classify st ~frame ~killed ~mem_limited ~attempt:1
  in
  (match cl (Unix.WEXITED 0) with
  | Worker.Done -> ()
  | _ -> Alcotest.fail "exit 0 is done");
  (match cl (Unix.WEXITED 64) ~frame:(Some ("invalid", "bad netlist")) with
  | Worker.Invalid "bad netlist" -> ()
  | _ -> Alcotest.fail "exit 64 is invalid, frame detail preferred");
  (match cl (Unix.WEXITED 65) with
  | Worker.Timed_out _ -> ()
  | _ -> Alcotest.fail "exit 65 is timed-out");
  (match cl (Unix.WEXITED 66) with
  | Worker.Parked _ -> ()
  | _ -> Alcotest.fail "exit 66 is parked");
  (match cl (Unix.WEXITED 67) with
  | Worker.Transient _ -> ()
  | _ -> Alcotest.fail "exit 67 is transient");
  (match cl (Unix.WEXITED 68) with
  | Worker.Rlimit _ -> ()
  | _ -> Alcotest.fail "exit 68 is rlimit");
  (* unclassified exits and signals are lost workers *)
  (match cl (Unix.WEXITED 1) with
  | Worker.Lost _ -> ()
  | _ -> Alcotest.fail "exit 1 is lost");
  (match cl (Unix.WSIGNALED Sys.sigkill) with
  | Worker.Lost m ->
    Alcotest.(check bool) "SIGKILL named" true
      (Astring.String.is_infix ~affix:"SIGKILL" m)
  | _ -> Alcotest.fail "SIGKILL is lost");
  (* rlimit deaths *)
  (match cl (Unix.WSIGNALED Sys.sigxcpu) with
  | Worker.Rlimit _ -> ()
  | _ -> Alcotest.fail "SIGXCPU is rlimit");
  (match cl (Unix.WSIGNALED Sys.sigabrt) ~mem_limited:true with
  | Worker.Rlimit _ -> ()
  | _ -> Alcotest.fail "frameless SIGABRT under a mem limit is rlimit");
  (match cl (Unix.WSIGNALED Sys.sigabrt) with
  | Worker.Lost _ -> ()
  | _ -> Alcotest.fail "SIGABRT without a mem limit is lost");
  (match cl (Unix.WEXITED 125) ~mem_limited:true with
  | Worker.Rlimit _ -> ()
  | _ -> Alcotest.fail "fatal-error exit under a mem limit is rlimit");
  (* watchdog kills outrank the raw status *)
  (match cl (Unix.WSIGNALED Sys.sigkill) ~killed:(Some (Worker.Kill_deadline 2.0)) with
  | Worker.Timed_out _ -> ()
  | _ -> Alcotest.fail "deadline kill is timed-out");
  match cl (Unix.WSIGNALED Sys.sigkill) ~killed:(Some (Worker.Kill_hang 1.0)) with
  | Worker.Lost _ -> ()
  | _ -> Alcotest.fail "hang kill is lost (retry)"

(* The two worker-death fault sites ride the same registry as every
   other site: listed, documented, parseable from HIDAP_FAULT. *)
let test_worker_fault_sites_registered () =
  List.iter
    (fun site ->
      Alcotest.(check bool) (site ^ " registered") true
        (List.mem_assoc site Guard.Fault.sites))
    [ "serve.worker"; "serve.worker_kill"; "serve.worker_hang" ];
  match Guard.Fault.parse "serve.worker_kill:1,serve.worker_hang:2" with
  | Ok [ a; b ] ->
    Alcotest.(check string) "site a" "serve.worker_kill" a.Guard.Fault.site;
    Alcotest.(check string) "site b" "serve.worker_hang" b.Guard.Fault.site
  | Ok _ -> Alcotest.fail "wrong spec count"
  | Error m -> Alcotest.failf "spec refused: %s" m

(* A worker spawned while an EOF'd sibling still holds its slot must
   not be told to close that sibling's stale fd: the new pipe may reuse
   the number. test/pool_harness.ml forces the reuse; it runs as a
   subprocess because Pool.spawn forks. *)
let test_pool_sibling_fd_reuse () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "pool_harness.exe"
  in
  let pid = Unix.create_process exe [| exe |] Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "pool_harness exited %d" c
  | _ -> Alcotest.fail "pool_harness died of a signal"

(* ---- end-to-end daemon -------------------------------------------- *)

let test_serve_done_result_report () =
  with_scratch @@ fun dir ->
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  ok (Serve.Client.ping cl);
  let id = submit_ok cl (fig1_submit ()) in
  Alcotest.(check string) "first id" "j0001" id;
  (match wait_state cl id with
  | P.Done -> ()
  | s -> Alcotest.failf "job ended %s" (P.state_to_string s));
  (* the daemon drops a done job's netlist from memory, never from
     job.json *)
  (match Serve.Job.load ~state_dir:d.state_dir id with
  | Ok j ->
    Alcotest.(check bool) "job.json keeps the netlist" true
      (j.Serve.Job.spec.P.hnl = Some (Lazy.force fig1_hnl))
  | Error e -> Alcotest.failf "job.json unreadable: %s" e);
  (* the QoR ledger and the HTML report are served back *)
  let qor = ok (Serve.Client.result cl id) in
  (match J.member "records" qor with
  | Some (J.List [ _ ]) -> ()
  | _ -> Alcotest.fail "result is not a one-record ledger");
  let html = ok (Serve.Client.report cl id) in
  Alcotest.(check bool) "report looks like html" true
    (String.length html > 0
    && Astring.String.is_infix ~affix:"<html" (String.lowercase_ascii html));
  let s = ok (Serve.Client.stats cl) in
  Alcotest.(check int) "accepted" 1 s.P.accepted;
  Alcotest.(check int) "completed" 1 s.P.completed;
  Alcotest.(check int) "one worker slot" 1 (List.length s.P.workers);
  (* result of a non-existent job is a structured error *)
  (match Serve.Client.result cl "j9999" with
  | Error e when not (Serve.Client.is_conn e) -> ()
  | Error _ -> Alcotest.fail "unknown-job error misclassified as conn"
  | Ok _ -> Alcotest.fail "result for unknown job succeeded");
  Serve.Client.close cl

let test_serve_deadline_lands_timed_out () =
  with_scratch @@ fun dir ->
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let id = submit_ok cl (fig1_submit ~deadline_s:0.0005 ~label:"doomed" ()) in
  (match wait_state cl id with
  | P.Timed_out -> ()
  | s -> Alcotest.failf "deadline job ended %s" (P.state_to_string s));
  (* the blast radius is one job: the next one completes normally *)
  let id2 = submit_ok cl (fig1_submit ~label:"fine" ()) in
  (match wait_state cl id2 with
  | P.Done -> ()
  | s -> Alcotest.failf "follow-up job ended %s" (P.state_to_string s));
  let s = ok (Serve.Client.stats cl) in
  Alcotest.(check int) "timed_out" 1 s.P.timed_out;
  Alcotest.(check int) "completed" 1 s.P.completed;
  Serve.Client.close cl

let test_serve_backpressure () =
  (* Stall the worker on its first job so submissions pile up behind a
     queue bound of 1: the third submit must be refused, structured. *)
  with_scratch @@ fun dir ->
  let d = start ~queue_limit:1 ~fault:"serve.worker:1:stall=0.6" dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let id1 = submit_ok cl (fig1_submit ~label:"stalled" ()) in
  Unix.sleepf 0.2 (* let a worker claim it and hit the stall *);
  let id2 = submit_ok cl (fig1_submit ~label:"queued" ()) in
  (match ok (Serve.Client.submit cl (fig1_submit ~label:"refused" ())) with
  | `Rejected ("backpressure", depth, limit) ->
    Alcotest.(check int) "depth at refusal" 1 depth;
    Alcotest.(check int) "limit reported" 1 limit
  | `Rejected (r, _, _) -> Alcotest.failf "wrong rejection reason %s" r
  | `Accepted _ -> Alcotest.fail "overfull submit accepted");
  (* both admitted jobs still finish *)
  List.iter
    (fun id ->
      match wait_state cl id with
      | P.Done -> ()
      | s -> Alcotest.failf "%s ended %s" id (P.state_to_string s))
    [ id1; id2 ];
  let s = ok (Serve.Client.stats cl) in
  Alcotest.(check int) "rejections counted" 1 s.P.rejected_backpressure;
  Serve.Client.close cl

let test_serve_retry_then_done () =
  (* Transient serve.worker fault: attempt 1's worker dies at start,
     the retry heals. The hit is counted in the daemon, so one spec
     spans both worker processes. *)
  with_scratch @@ fun dir ->
  let d = start ~fault:"serve.worker:1" dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let id = submit_ok cl (fig1_submit ~max_retries:2 ()) in
  let v = ok (Serve.Client.wait cl id) in
  (match v.P.state with
  | P.Done -> ()
  | s -> Alcotest.failf "retried job ended %s" (P.state_to_string s));
  Alcotest.(check int) "two attempts" 2 v.P.attempts;
  let s = ok (Serve.Client.stats cl) in
  Alcotest.(check int) "retried" 1 s.P.retried;
  Serve.Client.close cl

let test_serve_fails_after_retry_budget () =
  with_scratch @@ fun dir ->
  let d = start ~fault:"serve.worker:99" dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let id = submit_ok cl (fig1_submit ~max_retries:1 ()) in
  let v = ok (Serve.Client.wait cl id) in
  (match v.P.state with
  | P.Failed -> ()
  | s -> Alcotest.failf "exhausted job ended %s" (P.state_to_string s));
  Alcotest.(check int) "initial attempt + one retry" 2 v.P.attempts;
  Serve.Client.close cl

(* serve.worker_kill: the worker SIGKILLs itself mid-job, right after
   its first checkpoint snapshot, so the kill lands inside the
   placement however fast the job runs. The daemon must classify the
   signaled exit as worker-lost, retry, and stay fully serviceable. *)
let test_serve_worker_killed_retries () =
  with_scratch @@ fun dir ->
  let d = start ~fault:"serve.worker_kill:1" dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let id = submit_ok cl (fig1_submit ~max_retries:1 ()) in
  let v = ok (Serve.Client.wait cl id) in
  (match v.P.state with
  | P.Done -> ()
  | s -> Alcotest.failf "killed-worker job ended %s" (P.state_to_string s));
  Alcotest.(check int) "two attempts" 2 v.P.attempts;
  let s = ok (Serve.Client.stats cl) in
  Alcotest.(check int) "worker_lost counted" 1 s.P.worker_lost;
  Alcotest.(check int) "retried" 1 s.P.retried;
  (* without retry budget the same death is terminal, daemon unharmed *)
  Serve.Client.close cl

(* serve.worker_hang: the worker goes silent before its first stream
   byte. Only the hung-job watchdog can end it; the job then retries. *)
let test_serve_worker_hang_watchdog () =
  with_scratch @@ fun dir ->
  let d = start ~fault:"serve.worker_hang:1" ~job_stall_s:0.8 dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let id = submit_ok cl (fig1_submit ~max_retries:1 ()) in
  let v = ok (Serve.Client.wait ~timeout_s:30.0 cl id) in
  (match v.P.state with
  | P.Done -> ()
  | s -> Alcotest.failf "hung-worker job ended %s" (P.state_to_string s));
  Alcotest.(check int) "two attempts" 2 v.P.attempts;
  let s = ok (Serve.Client.stats cl) in
  Alcotest.(check int) "worker_lost counted" 1 s.P.worker_lost;
  Serve.Client.close cl

(* --job-cpu-s: CPU exhaustion is SIGXCPU, classified rlimit, and
   deterministic — so the job fails without burning its retry budget.
   The bound must separate the two jobs cleanly: a fig1 job burns
   ~0.1s of CPU and a c5 job ~2s (its placement alone is 1.8s on one
   2-core box), so 1s fails only c5. *)
let test_serve_cpu_rlimit () =
  with_scratch @@ fun dir ->
  let d = start ~job_cpu_s:1 dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let id = submit_ok cl (c5_submit ~max_retries:3 ()) in
  let v = ok (Serve.Client.wait ~timeout_s:60.0 cl id) in
  (match v.P.state with
  | P.Failed -> ()
  | s -> Alcotest.failf "cpu-limited job ended %s" (P.state_to_string s));
  Alcotest.(check int) "rlimit failure never retries" 1 v.P.attempts;
  Alcotest.(check bool) "detail names the rlimit" true
    (Astring.String.is_infix ~affix:"rlimit" v.P.detail);
  (* the daemon and the next job are untouched *)
  let id2 = submit_ok cl (fig1_submit ()) in
  (match wait_state cl id2 with
  | P.Done -> ()
  | s -> Alcotest.failf "follow-up job ended %s" (P.state_to_string s));
  Serve.Client.close cl

let test_serve_invalid_submissions () =
  with_scratch @@ fun dir ->
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  (* neither circuit nor hnl: refused at the door *)
  (match Serve.Client.submit cl P.default_submit with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty submit accepted");
  (* an unparseable netlist, and one with no cells (a degenerate die,
     which `hidap place` rejects too): accepted, then failed terminally
     without retry *)
  List.iter
    (fun (hnl, why) ->
      let id = submit_ok cl { P.default_submit with P.hnl = Some hnl; max_retries = 5 } in
      let v = ok (Serve.Client.wait cl id) in
      (match v.P.state with
      | P.Failed -> ()
      | s -> Alcotest.failf "invalid job ended %s" (P.state_to_string s));
      Alcotest.(check int) "invalid jobs never retry" 1 v.P.attempts;
      List.iter
        (fun affix ->
          Alcotest.(check bool)
            (Printf.sprintf "detail %S names %s" v.P.detail affix)
            true
            (Astring.String.is_infix ~affix v.P.detail))
        [ "invalid job:"; why ])
    [ ("not a netlist", "hnl:1:1"); ("design e\nmodule e { input a }\n", "bad-die") ];
  Serve.Client.close cl

let test_serve_watch_streams_progress () =
  with_scratch @@ fun dir ->
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let id = submit_ok cl (fig1_submit ()) in
  let events = ref 0 in
  let v =
    ok
      (Serve.Client.watch cl id ~on_event:(fun e ->
           (* relayed events are hidap-progress documents *)
           (match J.member "schema" e with
           | Some (J.String "hidap-progress") -> ()
           | _ -> Alcotest.fail "relayed event is not a progress document");
           incr events))
  in
  (match v.P.state with
  | P.Done -> ()
  | s -> Alcotest.failf "watched job ended %s" (P.state_to_string s));
  Alcotest.(check bool)
    (Printf.sprintf "progress events relayed (%d)" !events)
    true (!events > 0);
  Serve.Client.close cl

(* ---- multi-client stress ------------------------------------------- *)

(* 4 clients, 20 jobs each, 2 workers: every job accepted exactly once,
   every job completes, every result decodes, nothing lost or
   duplicated across the concurrent conversations. *)
let test_serve_stress_multi_client () =
  with_scratch @@ fun dir ->
  let d = start ~workers:2 ~queue_limit:100 dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let clients = List.init 4 (fun _ -> connect d) in
  let ids =
    List.concat_map
      (fun cl ->
        List.init 20 (fun i ->
            submit_ok cl (fig1_submit ~seed:(1 + (i mod 5)) ~label:"stress" ())))
      clients
  in
  Alcotest.(check int) "80 jobs accepted" 80 (List.length ids);
  let uniq = List.sort_uniq compare ids in
  Alcotest.(check int) "no duplicate ids" 80 (List.length uniq);
  let cl0 = List.hd clients in
  (* The pool runs jobs side by side: while the queue drains, some
     stats reply shows both slots holding distinct jobs at once. *)
  let deadline = Unix.gettimeofday () +. 120.0 in
  let rec await_overlap () =
    let s = ok (Serve.Client.stats cl0) in
    match List.filter_map (fun w -> w.P.job) s.P.workers with
    | [ a; b ] when a <> b -> ()
    | _ ->
      if s.P.completed >= 80 then
        Alcotest.fail "the 80 jobs drained without two workers ever busy at once"
      else if Unix.gettimeofday () > deadline then
        Alcotest.fail "no stats reply showed two workers busy at once"
      else begin
        Unix.sleepf 0.005;
        await_overlap ()
      end
  in
  await_overlap ();
  List.iter
    (fun id ->
      match ok (Serve.Client.wait ~timeout_s:300.0 cl0 id) with
      | { P.state = P.Done; _ } -> ()
      | v -> Alcotest.failf "%s ended %s (%s)" id (P.state_to_string v.P.state) v.P.detail)
    ids;
  (* every result decodes as a one-record ledger *)
  List.iter
    (fun id ->
      match J.member "records" (ok (Serve.Client.result cl0 id)) with
      | Some (J.List [ _ ]) -> ()
      | _ -> Alcotest.failf "%s: result does not decode" id)
    ids;
  let s = ok (Serve.Client.stats cl0) in
  Alcotest.(check int) "all completed" 80 s.P.completed;
  Alcotest.(check int) "none lost" 0 s.P.worker_lost;
  Alcotest.(check int) "none failed" 0 s.P.failed;
  List.iter Serve.Client.close clients

(* ---- worker SIGKILL mid-job: bit-identical retry ------------------- *)

(* Wait until job [id] has written its first checkpoint snapshot: a
   point mid-flow that, unlike a fixed sleep, a faster machine does not
   skip past. *)
let await_snapshot ?(timeout_s = 30.0) d id =
  let ckdir = Serve.Job.ckpt_dir ~state_dir:d.state_dir id in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    if
      Sys.file_exists ckdir
      && Array.exists (fun f -> Filename.check_suffix f ".ckpt") (Sys.readdir ckdir)
    then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "job %s never wrote a snapshot" id
    else begin
      Unix.sleepf 0.01;
      poll ()
    end
  in
  poll ()

let record_macros_of_json doc =
  match J.member "records" doc with
  | Some (J.List [ r ]) -> (
    match J.member "macros" r with
    | Some m -> m
    | None -> Alcotest.fail "no macros in record")
  | _ -> Alcotest.fail "not a one-record ledger"

(* An external kill -9 of a worker mid-c5 must leave the daemon
   serviceable, retry the job, and — thanks to the per-job checkpoint
   store — produce macros bit-identical to an uninterrupted control
   run of the same spec. *)
let test_serve_worker_sigkill_bit_identical () =
  with_scratch @@ fun dir ->
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  (* control: uninterrupted run *)
  let control = submit_ok cl (c5_submit ()) in
  (match wait_state ~timeout_s:300.0 cl control with
  | P.Done -> ()
  | s -> Alcotest.failf "control ended %s" (P.state_to_string s));
  let control_macros = record_macros_of_json (ok (Serve.Client.result cl control)) in
  (* victim: same spec, worker killed mid-flight *)
  let victim = submit_ok cl (c5_submit ~max_retries:1 ()) in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec find_pid () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "victim's worker never appeared in stats"
    else
      let s = ok (Serve.Client.stats cl) in
      match
        List.find_opt (fun w -> w.P.job = Some victim) s.P.workers
      with
      | Some { P.pid = Some pid; _ } -> pid
      | _ ->
        Unix.sleepf 0.05;
        find_pid ()
  in
  let pid = find_pid () in
  (* Kill once the victim has written its first snapshot: the retry
     then resumes from a checkpoint, and the kill lands well before
     the job (about 2s of work) can finish. *)
  await_snapshot d victim;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let v = ok (Serve.Client.wait ~timeout_s:300.0 cl victim) in
  (match v.P.state with
  | P.Done -> ()
  | s -> Alcotest.failf "victim ended %s (%s)" (P.state_to_string s) v.P.detail);
  Alcotest.(check int) "victim retried" 2 v.P.attempts;
  let s = ok (Serve.Client.stats cl) in
  Alcotest.(check int) "worker_lost counted" 1 s.P.worker_lost;
  let victim_macros = record_macros_of_json (ok (Serve.Client.result cl victim)) in
  Alcotest.(check bool) "retried placement bit-identical to control" true
    (victim_macros = control_macros);
  (* daemon still fully serviceable *)
  let id = submit_ok cl (fig1_submit ()) in
  (match wait_state cl id with
  | P.Done -> ()
  | s -> Alcotest.failf "post-kill job ended %s" (P.state_to_string s));
  Serve.Client.close cl

(* ---- framing fuzz -------------------------------------------------- *)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let raw_send fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  (* the daemon is allowed to drop the connection mid-write *)
  try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* Read one response line; [None] on clean disconnect or timeout. *)
let raw_recv_line fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ ->
      if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None
  in
  go ()

let test_serve_framing_fuzz () =
  (* the bound must clear the inline-HNL submit used at the end, so
     real work still fits while the oversized probes do not *)
  let submit_len =
    String.length (P.to_line (P.request_to_json (P.Submit (fig1_submit ()))))
  in
  let max_line_bytes = max 1024 (4 * submit_len) in
  with_scratch @@ fun dir ->
  let d = start ~max_line_bytes dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let assert_alive tag =
    let cl = connect d in
    (match Serve.Client.ping cl with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "daemon dead after %s: %s" tag (Serve.Client.error_message e));
    Serve.Client.close cl
  in
  let expect_error tag line =
    let fd = raw_connect d.sock in
    raw_send fd line;
    (match raw_recv_line fd with
    | None -> () (* clean disconnect is an acceptable answer *)
    | Some reply -> (
      match P.response_of_line reply with
      | Ok (P.Error_reply _) -> ()
      | Ok r ->
        Alcotest.failf "%s answered %s" tag
          (J.to_string ~compact:true (P.response_to_json r))
      | Error msg -> Alcotest.failf "%s: unparseable reply %s" tag msg));
    (try Unix.close fd with Unix.Unix_error _ -> ());
    assert_alive tag
  in
  expect_error "garbage" "complete garbage\n";
  expect_error "wrong schema" ({|{"schema":"mqtt","version":1,"req":"ping"}|} ^ "\n");
  expect_error "newer version" {|{"schema":"hidap-serve","version":42,"req":"ping"}
|};
  expect_error "unknown request" {|{"schema":"hidap-serve","version":1,"req":"?"}
|};
  expect_error "oversized line" (String.make (max_line_bytes + 1024) 'a' ^ "\n");
  (* oversized with no terminator at all: the buffer bound trips *)
  expect_error "oversized unterminated" (String.make (2 * max_line_bytes) 'b');
  (* truncated request then hard disconnect *)
  let fd = raw_connect d.sock in
  raw_send fd {|{"schema":"hidap-serve","ver|};
  Unix.close fd;
  assert_alive "truncated disconnect";
  (* random bytes, many connections *)
  let rng = Util.Rng.create 0xFA22 in
  for _ = 1 to 25 do
    let n = 1 + Util.Rng.int rng 600 in
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set b i (Char.chr (Util.Rng.int rng 256))
    done;
    let fd = raw_connect d.sock in
    raw_send fd (Bytes.to_string b);
    raw_send fd "\n";
    ignore (raw_recv_line fd);
    try Unix.close fd with Unix.Unix_error _ -> ()
  done;
  assert_alive "random bytes";
  (* and after all that abuse, real work still goes through *)
  let cl = connect d in
  let id = submit_ok cl (fig1_submit ()) in
  (match wait_state cl id with
  | P.Done -> ()
  | s -> Alcotest.failf "post-fuzz job ended %s" (P.state_to_string s));
  Serve.Client.close cl

(* ---- drain / park / resume ---------------------------------------- *)

let record_macros path =
  match J.parse_file path with
  | Error msg -> Alcotest.failf "%s: %s" path msg
  | Ok doc -> record_macros_of_json doc

let record_of path =
  match Qor.Record.load_ledger path with
  | Ok [ r ] -> r
  | Ok _ -> Alcotest.failf "%s: not a one-record ledger" path
  | Error msg -> Alcotest.failf "%s: %s" path msg

let record_resumed_from path =
  match J.parse_file path with
  | Error msg -> Alcotest.failf "%s: %s" path msg
  | Ok doc -> (
    match J.member "records" doc with
    | Some (J.List [ r ]) -> (
      match J.member "ckpt" r with
      | Some ck -> J.member "resumed_from" ck
      | None -> None)
    | _ -> None)

(* SIGTERM mid-job: the drain's second phase asks the worker to
   checkpoint and park; a new daemon on the same state dir resumes it
   to a placement bit-identical to a control run of the same spec. The
   drain starts once the job has written its first snapshot. Before the
   restart the parked job's newest snapshot is torn, so the resume
   rolls back past it, and the job's result must record that rollback. *)
let test_serve_drain_parks_then_resumes () =
  with_scratch @@ fun dir ->
  let spec = c1_submit () in
  let d1 = start ~drain_grace_s:0.05 dir in
  let id =
    let cl = connect d1 in
    let id = submit_ok cl spec in
    await_snapshot d1 id;
    Serve.Client.close cl;
    stop d1 (* SIGTERM; graceful -> term -> the worker parks *);
    id
  in
  (* the daemon is gone; the parked job survives on disk *)
  (match Serve.Job.load ~state_dir:d1.state_dir id with
  | Ok j ->
    (match j.Serve.Job.state with
    | P.Parked -> ()
    | P.Done ->
      (* the machine outran the sleep: the job finished inside the
         grace window, which is also a correct drain. Nothing to
         resume, so the rest of this test has no subject. *)
      Alcotest.skip ()
    | s -> Alcotest.failf "after drain the job is %s" (P.state_to_string s))
  | Error msg -> Alcotest.failf "parked job unreadable: %s" msg);
  (* tear the parked job's newest snapshot: the resume must roll back
     past it and record the rollback in the job's own ledger *)
  (match
     Ckpt.Store.open_ ~fresh:false (Serve.Job.ckpt_dir ~state_dir:d1.state_dir id)
   with
  | Ok store -> Ckpt.Store.corrupt_latest store
  | Error msg -> Alcotest.failf "parked job's checkpoints unreadable: %s" msg);
  (* restart on the same state dir: the job resumes and completes *)
  let d2 = start dir in
  Fun.protect ~finally:(fun () -> try stop d2 with _ -> ()) @@ fun () ->
  let cl = connect d2 in
  let control = submit_ok cl spec in
  (match wait_state ~timeout_s:300.0 cl control with
  | P.Done -> ()
  | s -> Alcotest.failf "control job ended %s" (P.state_to_string s));
  let v = ok (Serve.Client.wait ~timeout_s:300.0 cl id) in
  (match v.P.state with
  | P.Done -> ()
  | s -> Alcotest.failf "resumed job ended %s" (P.state_to_string s));
  let resumed = Serve.Job.result_path ~state_dir:d2.state_dir id in
  let fresh = Serve.Job.result_path ~state_dir:d2.state_dir control in
  (match record_resumed_from resumed with
  | Some J.Null | None ->
    Alcotest.fail "resumed job did not restart from a checkpoint"
  | Some _ -> ());
  Alcotest.(check bool) "rollback recorded in the resumed job's ledger" true
    (List.exists
       (fun (e : Guard.Supervisor.entry) ->
         e.Guard.Supervisor.stage = "ckpt.load" && e.Guard.Supervisor.reason = "rollback")
       (record_of resumed).Qor.Record.degradations);
  Alcotest.(check bool) "resumed placement bit-identical to control" true
    (record_macros resumed = record_macros fresh);
  Serve.Client.close cl

(* kill -9 the daemon mid-job: the next daemon on the same state dir
   finds a stale socket (probed dead, unlinked) and a running-state
   job (recovered as pending, completed). Satellite: stale-socket
   recovery composed with crash recovery. *)
let test_serve_kill9_stale_socket_recovery () =
  with_scratch @@ fun dir ->
  let d1 = start dir in
  let id =
    let cl = connect d1 in
    let id = submit_ok cl (c1_submit ()) in
    Unix.sleepf 0.2 (* let a worker claim it *);
    Serve.Client.close cl;
    id
  in
  kill9 d1;
  Alcotest.(check bool) "socket file left behind" true (Sys.file_exists d1.sock);
  (* same socket path: the new daemon probes, unlinks, binds *)
  let d2 = start dir in
  Fun.protect ~finally:(fun () -> try stop d2 with _ -> ()) @@ fun () ->
  let cl = connect d2 in
  let v = ok (Serve.Client.wait ~timeout_s:300.0 cl id) in
  (match v.P.state with
  | P.Done -> ()
  | s -> Alcotest.failf "recovered job ended %s" (P.state_to_string s));
  Alcotest.(check bool) "stale socket was reported" true
    (Astring.String.is_infix ~affix:"stale socket" (dump_log d2));
  Serve.Client.close cl

(* A second daemon must refuse to steal a live daemon's socket, with
   the serve-socket-busy diag and the daemon exit code. *)
let test_serve_socket_busy_refused () =
  with_scratch @@ fun dir ->
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  with_scratch @@ fun dir2 ->
  let log2 = Filename.concat dir2 "serve2.log" in
  let logfd = Unix.openfile log2 [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid =
    Unix.create_process (Lazy.force cli)
      [| Lazy.force cli; "serve"; "--socket"; d.sock; "--state-dir";
         Filename.concat dir2 "state" |]
      Unix.stdin logfd logfd
  in
  Unix.close logfd;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 7 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "second daemon exited %d, wanted 7" c
  | _ -> Alcotest.fail "second daemon died of a signal");
  let log2c =
    let ic = open_in log2 in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check bool) "structured serve-socket-busy diag" true
    (Astring.String.is_infix ~affix:"serve-socket-busy" log2c);
  (* the first daemon is unharmed *)
  let cl = connect d in
  ok (Serve.Client.ping cl);
  Serve.Client.close cl

(* crash recovery of a job.json left in running state with no
   checkpoint at all (the worker never got that far). *)
let test_serve_crash_recovery () =
  with_scratch @@ fun dir ->
  let state_dir = Filename.concat dir "state" in
  let j = Serve.Job.make ~seq:1 (fig1_submit ()) in
  j.Serve.Job.state <- P.Running;
  j.Serve.Job.attempts <- 1;
  Serve.Job.save ~state_dir j;
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  let v = ok (Serve.Client.wait cl j.Serve.Job.id) in
  (match v.P.state with
  | P.Done -> ()
  | s -> Alcotest.failf "recovered job ended %s" (P.state_to_string s));
  Alcotest.(check bool) "recovery noted in detail" true
    (Astring.String.is_infix ~affix:"recover" v.P.detail);
  let s = ok (Serve.Client.stats cl) in
  Alcotest.(check int) "completed after recovery" 1 s.P.completed;
  Serve.Client.close cl

(* Recovery starts from whatever survived: a job dir whose job.json is
   torn, or decodes to a wrong-typed field, is skipped and named on the
   daemon's stderr, and the good jobs around it recover as before. The
   skipped dir's id stays taken, so no new job writes into it. *)
let test_serve_recovery_names_skipped_dirs () =
  with_scratch @@ fun dir ->
  let state_dir = Filename.concat dir "state" in
  let save seq state =
    let j = Serve.Job.make ~seq (fig1_submit ()) in
    j.Serve.Job.state <- state;
    Serve.Job.save ~state_dir j;
    j.Serve.Job.id
  in
  let running = save 1 P.Running in
  let done_ = save 4 P.Done in
  let write_meta id text =
    Serve.Job.mkdir_p (Serve.Job.dir ~state_dir id);
    let oc = open_out (Filename.concat (Serve.Job.dir ~state_dir id) "job.json") in
    output_string oc text;
    close_out oc;
    id
  in
  let torn = write_meta "j0005" {|{"schema":"hidap-serve-job","version":1,"id":"j0005","se|} in
  let wrong =
    write_meta "j0003"
      {|{"schema":"hidap-serve-job","version":1,"id":"j0003","seq":3,"state":"pending","spec":{"circuit":"c1","lambda":"0.2"}}|}
  in
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let cl = connect d in
  (match wait_state cl running with
  | P.Done -> ()
  | s -> Alcotest.failf "recovered job ended %s" (P.state_to_string s));
  Alcotest.(check bool) "the done job stays queryable" true
    ((ok (Serve.Client.status cl done_)).P.state = P.Done);
  List.iter
    (fun id ->
      match Serve.Client.status cl id with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "skipped job %s was recovered" id)
    [ torn; wrong ];
  (* the skipped ids stay taken: a new job gets a fresh dir *)
  Alcotest.(check string) "next job id" "j0006" (submit_ok cl (fig1_submit ()));
  Serve.Client.close cl;
  let log = dump_log d in
  List.iter
    (fun affix ->
      if not (Astring.String.is_infix ~affix log) then
        Alcotest.failf "daemon log does not name %S:\n%s" affix log)
    [ "hidap serve: skipping job dir " ^ Serve.Job.dir ~state_dir torn;
      "hidap serve: skipping job dir " ^ Serve.Job.dir ~state_dir wrong ^ ": spec.lambda" ]

(* A present submit field of the wrong type is refused with an error
   naming it, and no job is admitted: a string lambda must not run the
   default sweep. *)
let test_serve_wrong_typed_submit_refused () =
  with_scratch @@ fun dir ->
  let d = start dir in
  Fun.protect ~finally:(fun () -> try stop d with _ -> ()) @@ fun () ->
  let fd = raw_connect d.sock in
  raw_send fd
    ({|{"schema":"hidap-serve","version":1,"req":"submit","circuit":"c1","lambda":"0.2"}|}
    ^ "\n");
  (match Option.map P.response_of_line (raw_recv_line fd) with
  | Some (Ok (P.Error_reply msg)) ->
    Alcotest.(check bool) (Printf.sprintf "error %S names lambda" msg) true
      (Astring.String.is_infix ~affix:"lambda" msg)
  | Some (Ok r) -> Alcotest.failf "answered %s" (P.to_line (P.response_to_json r))
  | Some (Error e) -> Alcotest.failf "unparseable reply: %s" e
  | None -> Alcotest.fail "no reply");
  Unix.close fd;
  let cl = connect d in
  Alcotest.(check int) "no job admitted" 0 (ok (Serve.Client.stats cl)).P.accepted;
  Serve.Client.close cl

(* The daemon dying mid-conversation surfaces as a typed Conn error,
   never an exception or a hang. *)
let test_serve_daemon_death_is_conn_error () =
  with_scratch @@ fun dir ->
  let d = start dir in
  let cl = connect d in
  let id = submit_ok cl (c5_submit ()) in
  ignore id;
  kill9 d;
  (match Serve.Client.stats cl with
  | Error e ->
    Alcotest.(check bool) "typed as conn" true (Serve.Client.is_conn e)
  | Ok _ -> Alcotest.fail "stats on a dead daemon succeeded");
  Serve.Client.close cl;
  (try Sys.remove d.sock with Sys_error _ -> ())

(* Draining refuses new work with its own structured reason. *)
let test_serve_draining_rejects () =
  (* hold a worker busy so the daemon survives long enough to answer *)
  with_scratch @@ fun dir ->
  let d = start ~fault:"serve.worker:1:stall=1.5" ~drain_grace_s:3.0 dir in
  let cl = connect d in
  let _busy = submit_ok cl (fig1_submit ~label:"busy" ()) in
  Unix.sleepf 0.2;
  ok (Serve.Client.drain cl);
  (match Serve.Client.submit cl (fig1_submit ()) with
  | Ok (`Rejected ("draining", _, _)) -> ()
  | Ok (`Rejected (r, _, _)) -> Alcotest.failf "wrong rejection %s" r
  | Ok (`Accepted _) -> Alcotest.fail "draining daemon accepted a job"
  | Error _ -> () (* the daemon may already have shut the socket *));
  Serve.Client.close cl;
  match wait_exit d with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "drained daemon did not exit 0:\n%s" (dump_log d)

let suite =
  [ ( "serve",
      [ Alcotest.test_case "proto request round-trip" `Quick
          test_proto_request_roundtrip;
        Alcotest.test_case "proto response round-trip" `Quick
          test_proto_response_roundtrip;
        Alcotest.test_case "proto envelope checks" `Quick test_proto_envelope;
        Alcotest.test_case "proto decoding is total" `Quick
          test_proto_decode_total;
        Alcotest.test_case "jobq admission bound" `Quick test_jobq_admission;
        Alcotest.test_case "jobq priority + FIFO" `Quick test_jobq_ordering;
        Alcotest.test_case "jobq retry backoff" `Quick test_jobq_backoff;
        Alcotest.test_case "jobq try_pop never blocks" `Quick test_jobq_try_pop;
        Alcotest.test_case "jobq close means drain" `Quick
          test_jobq_close_drains;
        Alcotest.test_case "worker exit classification is total" `Quick
          test_worker_classify;
        Alcotest.test_case "worker fault sites registered" `Quick
          test_worker_fault_sites_registered;
        Alcotest.test_case "pool worker survives an EOF'd sibling's fd reuse"
          `Quick test_pool_sibling_fd_reuse;
        Alcotest.test_case "job done, result and report served" `Slow
          test_serve_done_result_report;
        Alcotest.test_case "deadline lands in timed-out" `Slow
          test_serve_deadline_lands_timed_out;
        Alcotest.test_case "backpressure rejection at the bound" `Slow
          test_serve_backpressure;
        Alcotest.test_case "transient fault retries then done" `Slow
          test_serve_retry_then_done;
        Alcotest.test_case "retry budget exhausts to failed" `Slow
          test_serve_fails_after_retry_budget;
        Alcotest.test_case "worker SIGKILL is contained and retried" `Slow
          test_serve_worker_killed_retries;
        Alcotest.test_case "hung worker killed by watchdog" `Slow
          test_serve_worker_hang_watchdog;
        Alcotest.test_case "cpu rlimit fails without retry" `Slow
          test_serve_cpu_rlimit;
        Alcotest.test_case "invalid submissions fail fast" `Slow
          test_serve_invalid_submissions;
        Alcotest.test_case "watch streams progress" `Slow
          test_serve_watch_streams_progress;
        Alcotest.test_case "multi-client stress: 4x20 jobs, 2 workers" `Slow
          test_serve_stress_multi_client;
        Alcotest.test_case "worker kill -9 mid-c5 retries bit-identically" `Slow
          test_serve_worker_sigkill_bit_identical;
        Alcotest.test_case "framing fuzz never kills the daemon" `Slow
          test_serve_framing_fuzz;
        Alcotest.test_case "drain parks, restart resumes bit-identically" `Slow
          test_serve_drain_parks_then_resumes;
        Alcotest.test_case "kill -9: stale socket + crash recovery" `Slow
          test_serve_kill9_stale_socket_recovery;
        Alcotest.test_case "live socket refused with busy diag" `Slow
          test_serve_socket_busy_refused;
        Alcotest.test_case "crash recovery completes the job" `Slow
          test_serve_crash_recovery;
        Alcotest.test_case "recovery names the job dirs it skips" `Slow
          test_serve_recovery_names_skipped_dirs;
        Alcotest.test_case "wrong-typed submit field refused" `Slow
          test_serve_wrong_typed_submit_refused;
        Alcotest.test_case "daemon death is a typed conn error" `Slow
          test_serve_daemon_death_is_conn_error;
        Alcotest.test_case "draining rejects new work" `Slow
          test_serve_draining_rejects ] ) ]
