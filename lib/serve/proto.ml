(* hidap-serve wire protocol: one JSON object per line, both ways.

   Requests and responses share the envelope {"schema":"hidap-serve",
   "version":1,...}; a request carries a "req" tag, a response a
   "resp" tag. Decoding is total: every malformed input maps to
   [Error], never an exception, because the daemon feeds it raw client
   bytes (the framing fuzz tests drive exactly this). *)

module J = Obs.Jsonx

let schema = "hidap-serve"

let version = 1

(* ---- job states --------------------------------------------------- *)

type state = Pending | Running | Done | Failed | Timed_out | Parked

let state_to_string = function
  | Pending -> "pending"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Timed_out -> "timed-out"
  | Parked -> "parked"

let state_of_string = function
  | "pending" -> Some Pending
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "timed-out" -> Some Timed_out
  | "parked" -> Some Parked
  | _ -> None

let state_terminal = function
  | Done | Failed | Timed_out | Parked -> true
  | Pending | Running -> false

(* ---- submissions -------------------------------------------------- *)

type submit = {
  circuit : string option;
  hnl : string option;
  seed : int;
  lambda : float option;
  jobs : int;
  priority : int;
  deadline_s : float option;
  max_retries : int;
  label : string;
}

let default_submit =
  { circuit = None; hnl = None; seed = 1; lambda = None; jobs = 0;
    priority = 0; deadline_s = None; max_retries = 0; label = "" }

let submit_fields s =
  List.filter_map
    (fun x -> x)
    [ Option.map (fun c -> ("circuit", J.String c)) s.circuit;
      Option.map (fun h -> ("hnl", J.String h)) s.hnl;
      Some ("seed", J.Int s.seed);
      Option.map (fun l -> ("lambda", J.Float l)) s.lambda;
      Some ("jobs", J.Int s.jobs);
      Some ("priority", J.Int s.priority);
      Option.map (fun d -> ("deadline_s", J.Float d)) s.deadline_s;
      Some ("max_retries", J.Int s.max_retries);
      Some ("label", J.String s.label) ]

open J.Syntax

let submit_of_json j =
  let d = default_submit in
  let* circuit = J.field_opt "circuit" J.string j in
  let* hnl = J.field_opt "hnl" J.string j in
  let* seed = J.field_or "seed" ~default:d.seed J.int j in
  let* lambda = J.field_opt "lambda" J.float j in
  let* jobs = J.field_or "jobs" ~default:d.jobs J.int j in
  let* priority = J.field_or "priority" ~default:d.priority J.int j in
  let* deadline_s = J.field_opt "deadline_s" J.float j in
  let* max_retries = J.field_or "max_retries" ~default:d.max_retries J.int j in
  let* label = J.field_or "label" ~default:d.label J.string j in
  Ok { circuit; hnl; seed; lambda; jobs; priority; deadline_s; max_retries; label }

(* ---- requests ----------------------------------------------------- *)

type request =
  | Ping
  | Submit of submit
  | Status of string
  | List
  | Stats
  | Result of string
  | Report of string
  | Watch of string
  | Drain

let envelope fields = J.Obj (("schema", J.String schema) :: ("version", J.Int version) :: fields)

let with_id tag id = [ ("req", J.String tag); ("id", J.String id) ]

let request_to_json = function
  | Ping -> envelope [ ("req", J.String "ping") ]
  | Submit s -> envelope (("req", J.String "submit") :: submit_fields s)
  | Status id -> envelope (with_id "status" id)
  | List -> envelope [ ("req", J.String "list") ]
  | Stats -> envelope [ ("req", J.String "stats") ]
  | Result id -> envelope (with_id "result" id)
  | Report id -> envelope (with_id "report" id)
  | Watch id -> envelope (with_id "watch" id)
  | Drain -> envelope [ ("req", J.String "drain") ]

(* The envelope check is shared by both directions: requests and
   responses refuse foreign schemas and newer versions the same way. *)
let check_envelope j =
  let* s = J.field "schema" J.string j in
  if s <> schema then Error (Printf.sprintf "unexpected schema %S (want %s)" s schema)
  else
    let* v = J.field "version" J.int j in
    if v > version then
      Error (Printf.sprintf "protocol version %d is newer than %d" v version)
    else Ok ()

let need_id j k = Result.map k (J.field "id" J.string j)

let request_of_json j =
  let* () = check_envelope j in
  let* req = J.field "req" J.string j in
  match req with
  | "ping" -> Ok Ping
  | "submit" -> Result.map (fun s -> Submit s) (submit_of_json j)
  | "status" -> need_id j (fun id -> Status id)
  | "list" -> Ok List
  | "stats" -> Ok Stats
  | "result" -> need_id j (fun id -> Result id)
  | "report" -> need_id j (fun id -> Report id)
  | "watch" -> need_id j (fun id -> Watch id)
  | "drain" -> Ok Drain
  | other -> Error (Printf.sprintf "unknown request %S" other)

let request_of_line line =
  match J.parse line with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j -> request_of_json j

(* ---- responses ---------------------------------------------------- *)

type job_view = {
  id : string;
  label : string;
  state : state;
  attempts : int;
  priority : int;
  detail : string;
}

(* One worker slot of the daemon's process pool: idle ([pid]/[job]
   absent) or running a job. Exposing the pid is deliberate — it lets
   operators (and the stress tests) kill a wedged worker externally
   and watch the daemon absorb it. *)
type worker_view = {
  slot : int;
  pid : int option;
  job : string option;
  elapsed_s : float;  (** 0 when idle *)
}

type stats = {
  queue_depth : int;
  queue_limit : int;
  accepted : int;
  rejected_backpressure : int;
  rejected_draining : int;
  completed : int;
  failed : int;
  timed_out : int;
  parked : int;
  retried : int;
  worker_lost : int;
  draining : bool;
  workers : worker_view list;
}

type response =
  | Pong
  | Accepted of { id : string; depth : int }
  | Rejected of { reason : string; depth : int; limit : int }
  | Job of job_view
  | Jobs of job_view list
  | Stats_reply of stats
  | Result_reply of { id : string; qor : J.t }
  | Report_reply of { id : string; html : string }
  | Progress of { id : string; event : J.t }
  | Draining_reply
  | Error_reply of string

let job_view_to_json v =
  J.Obj
    [ ("id", J.String v.id); ("label", J.String v.label);
      ("state", J.String (state_to_string v.state));
      ("attempts", J.Int v.attempts); ("priority", J.Int v.priority);
      ("detail", J.String v.detail) ]

let job_view_of_json j =
  let* id = J.field "id" J.string j in
  let* state = J.field "state" (J.enum "state" state_of_string) j in
  let* label = J.field_or "label" ~default:"" J.string j in
  let* attempts = J.field_or "attempts" ~default:0 J.int j in
  let* priority = J.field_or "priority" ~default:0 J.int j in
  let* detail = J.field_or "detail" ~default:"" J.string j in
  Ok { id; label; state; attempts; priority; detail }

let worker_view_to_json w =
  J.Obj
    [ ("slot", J.Int w.slot);
      ("pid", (match w.pid with Some p -> J.Int p | None -> J.Null));
      ("job", (match w.job with Some id -> J.String id | None -> J.Null));
      ("elapsed_s", J.Float w.elapsed_s) ]

let worker_view_of_json j =
  let* slot = J.field_or "slot" ~default:0 J.int j in
  let* pid = J.field_opt "pid" J.int j in
  let* job = J.field_opt "job" J.string j in
  let* elapsed_s = J.field_or "elapsed_s" ~default:0.0 J.float j in
  Ok { slot; pid; job; elapsed_s }

let stats_to_json s =
  J.Obj
    [ ("queue_depth", J.Int s.queue_depth); ("queue_limit", J.Int s.queue_limit);
      ("accepted", J.Int s.accepted);
      ("rejected_backpressure", J.Int s.rejected_backpressure);
      ("rejected_draining", J.Int s.rejected_draining);
      ("completed", J.Int s.completed); ("failed", J.Int s.failed);
      ("timed_out", J.Int s.timed_out); ("parked", J.Int s.parked);
      ("retried", J.Int s.retried); ("worker_lost", J.Int s.worker_lost);
      ("draining", J.Bool s.draining);
      ("workers", J.List (List.map worker_view_to_json s.workers)) ]

let stats_of_json j =
  let count name = J.field_or name ~default:0 J.int j in
  let* queue_depth = count "queue_depth" in
  let* queue_limit = count "queue_limit" in
  let* accepted = count "accepted" in
  let* rejected_backpressure = count "rejected_backpressure" in
  let* rejected_draining = count "rejected_draining" in
  let* completed = count "completed" in
  let* failed = count "failed" in
  let* timed_out = count "timed_out" in
  let* parked = count "parked" in
  let* retried = count "retried" in
  let* worker_lost = count "worker_lost" in
  let* draining = J.field_or "draining" ~default:false J.bool j in
  let* workers = J.field_or "workers" ~default:[] (J.list worker_view_of_json) j in
  Ok
    { queue_depth; queue_limit; accepted; rejected_backpressure; rejected_draining;
      completed; failed; timed_out; parked; retried; worker_lost; draining; workers }

let response_to_json = function
  | Pong -> envelope [ ("resp", J.String "pong") ]
  | Accepted { id; depth } ->
    envelope [ ("resp", J.String "accepted"); ("id", J.String id); ("depth", J.Int depth) ]
  | Rejected { reason; depth; limit } ->
    envelope
      [ ("resp", J.String "rejected"); ("reason", J.String reason);
        ("depth", J.Int depth); ("limit", J.Int limit) ]
  | Job v -> envelope [ ("resp", J.String "job"); ("job", job_view_to_json v) ]
  | Jobs vs ->
    envelope [ ("resp", J.String "jobs"); ("jobs", J.List (List.map job_view_to_json vs)) ]
  | Stats_reply s -> envelope [ ("resp", J.String "stats"); ("stats", stats_to_json s) ]
  | Result_reply { id; qor } ->
    envelope [ ("resp", J.String "result"); ("id", J.String id); ("qor", qor) ]
  | Report_reply { id; html } ->
    envelope [ ("resp", J.String "report"); ("id", J.String id); ("html", J.String html) ]
  | Progress { id; event } ->
    envelope [ ("resp", J.String "progress"); ("id", J.String id); ("event", event) ]
  | Draining_reply -> envelope [ ("resp", J.String "draining") ]
  | Error_reply msg -> envelope [ ("resp", J.String "error"); ("message", J.String msg) ]

let response_of_json j =
  let* () = check_envelope j in
  let* resp = J.field "resp" J.string j in
  let text name = J.field_or name ~default:"" J.string j in
  let count name = J.field_or name ~default:0 J.int j in
  let value name = J.field_or name ~default:J.Null Result.ok j in
  match resp with
  | "pong" -> Ok Pong
  | "accepted" ->
    let* id = J.field "id" J.string j in
    let* depth = count "depth" in
    Ok (Accepted { id; depth })
  | "rejected" ->
    let* reason = text "reason" in
    let* depth = count "depth" in
    let* limit = count "limit" in
    Ok (Rejected { reason; depth; limit })
  | "job" -> Result.map (fun v -> Job v) (J.field "job" job_view_of_json j)
  | "jobs" -> Result.map (fun vs -> Jobs vs) (J.field "jobs" (J.list job_view_of_json) j)
  | "stats" -> Result.map (fun s -> Stats_reply s) (J.field "stats" stats_of_json j)
  | "result" ->
    let* id = J.field "id" J.string j in
    let* qor = value "qor" in
    Ok (Result_reply { id; qor })
  | "report" ->
    let* id = J.field "id" J.string j in
    let* html = text "html" in
    Ok (Report_reply { id; html })
  | "progress" ->
    let* id = J.field "id" J.string j in
    let* event = value "event" in
    Ok (Progress { id; event })
  | "draining" -> Ok Draining_reply
  | "error" -> Result.map (fun m -> Error_reply m) (text "message")
  | other -> Error (Printf.sprintf "unknown response %S" other)

let response_of_line line =
  match J.parse line with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j -> response_of_json j

let to_line j = J.to_string ~compact:true j

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
