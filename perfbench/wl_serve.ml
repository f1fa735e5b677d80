(* serve-fig1-closed: a `hidap serve --workers 2` daemon and two client
   connections in a closed loop. Each client submits a fig1 job (fixed
   seed and lambda), watches it to its end, fetches its result and only
   then submits the next. This is the only workload that runs the
   daemon, its worker processes and their checkpoints. *)

open Common

let clients = 2

(* Jobs submitted by all clients, done or not. *)
let submitted = Atomic.make 0

let lambda = 0.5

let setup_reps = 3

(* Everything the daemon writes lives under this directory of the
   benchmark's own, inside the checkout; the socket path stays relative
   and short. *)
let out_dir = ".perfbench_out"

let rec rm_rf path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec du path =
  match Unix.lstat path with
  | { st_kind = S_DIR; _ } ->
    Array.fold_left (fun a e -> a + du (Filename.concat path e)) 0 (Sys.readdir path)
  | { st_size; _ } -> st_size
  | exception Unix.Unix_error (ENOENT, _, _) -> 0

type daemon = { pid : int; dir : string; socket : string; state_dir : string }

let start_daemon ~hidap ~dir =
  rm_rf dir;
  Serve.Job.mkdir_p dir;
  let socket = Filename.concat dir "s.sock" and state_dir = Filename.concat dir "state" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process hidap
      [| hidap; "serve"; "--socket"; socket; "--state-dir"; state_dir; "--workers";
         string_of_int clients; "--queue-limit"; string_of_int (2 * clients); "--jobs"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  let give_up = now () +. 30.0 in
  let rec await () =
    let answered =
      match Serve.Client.connect ~socket_path:socket with
      | cl ->
        let ok = Serve.Client.ping cl = Ok () in
        Serve.Client.close cl;
        ok
      | exception Unix.Unix_error _ -> false
    in
    if not answered then begin
      (match Unix.waitpid [ WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("hidap serve exited before answering; see " ^ dir ^ "/daemon.log"));
      if now () > give_up then failwith "hidap serve did not answer a ping within 30 s";
      Unix.sleepf 0.005;
      await ()
    end
  in
  await ();
  { pid; dir; socket; state_dir }

(* Drain with SIGTERM; the daemon must exit 0. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  check "hidap serve drains and exits 0" (status = WEXITED 0);
  rm_rf d.dir

(* A placement as the job's result record renders it: macro name, the
   rectangle's numbers as the JSON ledger prints them, orientation. *)
let render name (r : Geom.Rect.t) o =
  let f v = Obs.Jsonx.to_string (Obs.Jsonx.Float v) in
  String.concat " " [ name; f r.x; f r.y; f r.w; f r.h; Geom.Orientation.to_string o ]

type reference = {
  text : string;
  rendered : string list;
  wl_um : string;
  qor : qor;
  sizes : (string * int) list;
}

(* The in-process reference: the same HNL, read and validated the way a
   worker reads it, placed with the job's seed and lambda. *)
let reference ~seed =
  let text = Inputs.print (Circuitgen.Gen.generate (Inputs.fig1_params ~seed)) in
  let design =
    match Guard.Validate.design ~strict:false (Inputs.parse text) with
    | Ok r -> r.design
    | Error _ -> raise (Inputs.Bad_input "generated fig1 design does not validate")
  in
  let flat = Inputs.elaborate design in
  let config = Hidap.Config.with_lambda (Inputs.config ~seed ~jobs:1) lambda in
  let die = Hidap.die_for flat ~config in
  (flat, count_instances (fun () -> Hidap.place ~config ~die flat), text)

let measure_reference (flat, ((r : Hidap.result), instances), text) =
  let m, _ =
    Evalflow.measure ~flat ~gseq:r.gseq ~ports:r.ports ~die:r.die ~macros:(cp_macros r.placements)
  in
  let d = { Inputs.text; flat; die = r.die; gseq = r.gseq; ports = r.ports } in
  { text;
    rendered =
      List.map
        (fun (p : Hidap.macro_placement) -> render flat.nodes.(p.fid).path p.rect p.orient)
        r.placements;
    wl_um = Obs.Jsonx.to_string (Obs.Jsonx.Float m.wl_um);
    qor = qor_of m;
    sizes = Inputs.sizes ~instances [ d ] }

type job = { latency : float; traced : bool; place_s : float }

(* One client's closed loop on its own connection. *)
let client ~(daemon : daemon) ~(ref_ : reference) ~seed ~until ~trace k =
  let cl = Serve.Client.connect ~socket_path:daemon.socket in
  let spec =
    { Serve.Proto.default_submit with
      hnl = Some ref_.text; seed; lambda = Some lambda; jobs = 1; label = "fig1" }
  in
  let one j =
    let is_traced = trace && j mod 2 = 1 in
    let recorded f = if is_traced then record f else f () in
    recorded @@ fun () ->
    op_span ~name:"serve.job" ((k * 1_000_000) + j) @@ fun () ->
    let t0 = now () in
    Atomic.incr submitted;
    match Obs.Span.with_ ~name:"serve.submit" (fun () -> Serve.Client.submit cl spec) with
    | Ok (`Rejected (reason, _, _)) ->
      check ("job accepted (rejected: " ^ reason ^ ")") false;
      None
    | Error e ->
      check ("job submitted: " ^ Serve.Client.error_message e) false;
      None
    | Ok (`Accepted (id, _)) ->
      let place_us = ref 0.0 in
      let on_event ev =
        match (Obs.Jsonx.member "event" ev, Obs.Jsonx.member "dur_us" ev) with
        | Some (String "stage-end"), Some dur ->
          place_us := !place_us +. Option.value (Obs.Jsonx.to_float_opt dur) ~default:0.0
        | _ -> ()
      in
      let ended =
        Obs.Span.with_ ~name:"serve.watch" (fun () -> Serve.Client.watch cl id ~on_event)
      in
      let latency = now () -. t0 in
      let done_ =
        match ended with Ok v -> v.state = Serve.Proto.Done | Error _ -> false
      in
      check ("job " ^ id ^ " reaches done") done_;
      let result =
        match Obs.Span.with_ ~name:"serve.result" (fun () -> Serve.Client.result cl id) with
        | Ok json ->
          (match Qor.Record.records_of_json json with Ok (r :: _) -> Some r | _ -> None)
        | Error _ -> None
      in
      (match result with
      | Some r ->
        check ("job " ^ id ^ " macros equal the in-process Hidap.place")
          (List.map (fun (m : Qor.Record.macro) -> render m.macro_name m.macro_rect m.orient)
             r.macros
          = ref_.rendered);
        check ("job " ^ id ^ " wirelength equals the in-process evaluation")
          (Obs.Jsonx.to_string (Obs.Jsonx.Float r.qm.wl_um) = ref_.wl_um);
        Option.iter
          (fun (c : Qor.Record.ckpt_info) ->
            Layer_notes.note "ckpt.snapshots_per_job" (float_of_int c.snapshots_written))
          r.ckpt
      | None -> if done_ then check ("job " ^ id ^ " result record readable") false);
      Layer_notes.note "ckpt.bytes_per_job"
        (float_of_int (du (Serve.Job.ckpt_dir ~state_dir:daemon.state_dir id)));
      let place_s = !place_us /. 1e6 in
      Layer_notes.note "serve.job_place_s" place_s;
      Layer_notes.note "serve.overhead_s" (latency -. place_s);
      if done_ then Some { latency; traced = is_traced; place_s } else None
  in
  let rec loop j acc =
    if j >= (if trace then 2 else 1) && now () >= until then acc
    else loop (j + 1) (match one j with Some r -> r :: acc | None -> acc)
  in
  let jobs = loop 0 [] in
  Serve.Client.close cl;
  jobs

let run ~hidap ~seed ~seconds ~trace =
  let base = Filename.concat out_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  let setup_rep = ref 0 in
  let (placed, daemon), setup_s =
    setup ~reps:setup_reps ~trace
      ~dispose:(fun (_, d) -> stop_daemon d)
      (fun () ->
        let placed = reference ~seed in
        incr setup_rep;
        (placed, start_daemon ~hidap ~dir:(Printf.sprintf "%s-%d" base !setup_rep)))
  in
  let ref_ = measure_reference placed in
  let cpu0 = cpu_now () and t0 = now () in
  let until = t0 +. seconds in
  let others =
    List.init (clients - 1) (fun k ->
        Domain.spawn (fun () -> client ~daemon ~ref_ ~seed ~until ~trace (k + 1)))
  in
  let mine = client ~daemon ~ref_ ~seed ~until ~trace 0 in
  let jobs = List.concat (mine :: List.map Domain.join others) in
  let region_s = now () -. t0 in
  (match
     let cl = Serve.Client.connect ~socket_path:daemon.socket in
     Fun.protect ~finally:(fun () -> Serve.Client.close cl) (fun () -> Serve.Client.stats cl)
   with
  | Ok s ->
    Layer_notes.set "serve.rejected" (float_of_int (s.rejected_backpressure + s.rejected_draining));
    Layer_notes.set "serve.retried" (float_of_int s.retried);
    Layer_notes.set "serve.worker_lost" (float_of_int s.worker_lost);
    check "daemon counts no rejection, retry or lost worker"
      (s.rejected_backpressure + s.rejected_draining + s.retried + s.worker_lost = 0)
  | Error e -> check ("daemon stats: " ^ Serve.Client.error_message e) false);
  stop_daemon daemon;
  let cpu_s = cpu_now () -. cpu0 in
  let latencies traced =
    List.filter_map (fun j -> if j.traced = traced then Some j.latency else None) jobs
  in
  let walls = latencies false in
  let n = List.length jobs in
  untraced_walls := walls;
  traced_walls := latencies true;
  { metrics =
      Layers.of_run ~trace ~walls:[| walls |]
        ~cpus:[| [ cpu_s /. float_of_int (max 1 n) ] |]
        ~setup_s ~region_s ~ops:n ~rss_kb:(maxrss_kb 1) ~qor:ref_.qor;
    sizes = ref_.sizes;
    notes =
      [ Printf.sprintf "job_latency_p50_s %.4f s (n = %d jobs, %d clients)" (median walls)
          (List.length walls) clients;
        Printf.sprintf "daemon rejected %g, retried %g, lost %g workers; %d of %d jobs done"
          (Layer_notes.mean "serve.rejected") (Layer_notes.mean "serve.retried")
          (Layer_notes.mean "serve.worker_lost") n (Atomic.get submitted);
        Printf.sprintf "job_place_p50_s %.4f s (in-job flow time, from the relayed stage events)"
          (median (List.map (fun j -> j.place_s) jobs)) ] }
