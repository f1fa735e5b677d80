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

let opt_str j name = Option.bind (J.member name j) J.to_string_opt

let opt_int j name = Option.bind (J.member name j) J.to_int_opt

let opt_float j name = Option.bind (J.member name j) J.to_float_opt

let int_or j name d = Option.value ~default:d (opt_int j name)

let submit_of_json j =
  { circuit = opt_str j "circuit";
    hnl = opt_str j "hnl";
    seed = int_or j "seed" default_submit.seed;
    lambda = opt_float j "lambda";
    jobs = int_or j "jobs" default_submit.jobs;
    priority = int_or j "priority" default_submit.priority;
    deadline_s = opt_float j "deadline_s";
    max_retries = int_or j "max_retries" default_submit.max_retries;
    label = Option.value ~default:"" (opt_str j "label") }

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
  match (opt_str j "schema", opt_int j "version") with
  | None, _ -> Error "missing schema field"
  | Some s, _ when s <> schema ->
    Error (Printf.sprintf "unexpected schema %S (want %s)" s schema)
  | _, None -> Error "missing version field"
  | _, Some v when v > version ->
    Error (Printf.sprintf "protocol version %d is newer than %d" v version)
  | Some _, Some _ -> Ok ()

let need_id j k =
  match opt_str j "id" with
  | Some id -> Ok (k id)
  | None -> Error "missing id field"

let request_of_json j =
  match check_envelope j with
  | Error _ as e -> e
  | Ok () ->
    (match opt_str j "req" with
    | None -> Error "missing req field"
    | Some "ping" -> Ok Ping
    | Some "submit" -> Ok (Submit (submit_of_json j))
    | Some "status" -> need_id j (fun id -> Status id)
    | Some "list" -> Ok List
    | Some "stats" -> Ok Stats
    | Some "result" -> need_id j (fun id -> Result id)
    | Some "report" -> need_id j (fun id -> Report id)
    | Some "watch" -> need_id j (fun id -> Watch id)
    | Some "drain" -> Ok Drain
    | Some other -> Error (Printf.sprintf "unknown request %S" other))

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
  match (opt_str j "id", Option.bind (opt_str j "state") state_of_string) with
  | Some id, Some state ->
    Ok
      { id; state;
        label = Option.value ~default:"" (opt_str j "label");
        attempts = int_or j "attempts" 0;
        priority = int_or j "priority" 0;
        detail = Option.value ~default:"" (opt_str j "detail") }
  | _ -> Error "bad job view"

let worker_view_to_json w =
  J.Obj
    [ ("slot", J.Int w.slot);
      ("pid", (match w.pid with Some p -> J.Int p | None -> J.Null));
      ("job", (match w.job with Some id -> J.String id | None -> J.Null));
      ("elapsed_s", J.Float w.elapsed_s) ]

let worker_view_of_json j =
  { slot = int_or j "slot" 0;
    pid = opt_int j "pid";
    job = opt_str j "job";
    elapsed_s = Option.value ~default:0.0 (opt_float j "elapsed_s") }

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
  { queue_depth = int_or j "queue_depth" 0;
    queue_limit = int_or j "queue_limit" 0;
    accepted = int_or j "accepted" 0;
    rejected_backpressure = int_or j "rejected_backpressure" 0;
    rejected_draining = int_or j "rejected_draining" 0;
    completed = int_or j "completed" 0;
    failed = int_or j "failed" 0;
    timed_out = int_or j "timed_out" 0;
    parked = int_or j "parked" 0;
    retried = int_or j "retried" 0;
    worker_lost = int_or j "worker_lost" 0;
    draining = (match J.member "draining" j with Some (J.Bool b) -> b | _ -> false);
    workers =
      (match Option.bind (J.member "workers" j) J.to_list_opt with
      | Some l -> List.map worker_view_of_json l
      | None -> []) }

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
  match check_envelope j with
  | Error _ as e -> e
  | Ok () ->
    (match opt_str j "resp" with
    | None -> Error "missing resp field"
    | Some "pong" -> Ok Pong
    | Some "accepted" ->
      need_id j (fun id -> Accepted { id; depth = int_or j "depth" 0 })
    | Some "rejected" ->
      Ok
        (Rejected
           { reason = Option.value ~default:"" (opt_str j "reason");
             depth = int_or j "depth" 0; limit = int_or j "limit" 0 })
    | Some "job" ->
      (match J.member "job" j with
      | Some v -> Result.map (fun v -> Job v) (job_view_of_json v)
      | None -> Error "missing job field")
    | Some "jobs" ->
      (match Option.bind (J.member "jobs" j) J.to_list_opt with
      | None -> Error "missing jobs field"
      | Some l ->
        let rec go acc = function
          | [] -> Ok (Jobs (List.rev acc))
          | v :: rest ->
            (match job_view_of_json v with
            | Ok v -> go (v :: acc) rest
            | Error _ as e -> e)
        in
        go [] l)
    | Some "stats" ->
      (match J.member "stats" j with
      | Some s -> Ok (Stats_reply (stats_of_json s))
      | None -> Error "missing stats field")
    | Some "result" ->
      need_id j (fun id ->
          Result_reply { id; qor = Option.value ~default:J.Null (J.member "qor" j) })
    | Some "report" ->
      need_id j (fun id ->
          Report_reply
            { id; html = Option.value ~default:"" (opt_str j "html") })
    | Some "progress" ->
      need_id j (fun id ->
          Progress { id; event = Option.value ~default:J.Null (J.member "event" j) })
    | Some "draining" -> Ok Draining_reply
    | Some "error" ->
      Ok (Error_reply (Option.value ~default:"" (opt_str j "message")))
    | Some other -> Error (Printf.sprintf "unknown response %S" other))

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
