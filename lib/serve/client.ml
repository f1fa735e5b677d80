(* Blocking client for the hidap-serve socket.

   One connection carries any number of request/response exchanges;
   responses to one-shot requests come back in order, and a watch
   turns the connection into a stream of progress events ended by the
   job's terminal view.

   Errors are typed: [Conn] means the conversation with the daemon
   broke (refused, EOF mid-exchange, send failure) — the CLI maps
   these to its daemon-unreachable exit code — while [Remote] carries
   a daemon-sent error reply or a protocol-level surprise. *)

type error = Conn of string | Remote of string

let error_message = function Conn m | Remote m -> m

let is_conn = function Conn _ -> true | Remote _ -> false

type t = { fd : Unix.file_descr; ic : in_channel; mutable open_ : bool }

let connect ~socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; open_ = true }

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let send_line t line =
  let line = line ^ "\n" in
  let rec write_all off =
    if off < String.length line then
      let n = Unix.write_substring t.fd line off (String.length line - off) in
      write_all (off + n)
  in
  write_all 0

let send t req = send_line t (Proto.to_line (Proto.request_to_json req))

let recv t =
  match input_line t.ic with
  | line ->
    (match Proto.response_of_line line with
    | Ok r -> Ok r
    | Error m -> Error (Remote m))
  | exception End_of_file ->
    Error (Conn "daemon disconnected mid-conversation (EOF)")
  | exception Sys_error msg -> Error (Conn msg)

let request t req =
  match send t req with
  | () -> recv t
  | exception Unix.Unix_error (e, _, _) ->
    Error (Conn (Printf.sprintf "send to daemon failed: %s" (Unix.error_message e)))

let ping t =
  match request t Proto.Ping with
  | Ok Proto.Pong -> Ok ()
  | Ok (Proto.Error_reply m) -> Error (Remote m)
  | Ok _ -> Error (Remote "unexpected response to ping")
  | Error e -> Error e

let submit t spec =
  match request t (Proto.Submit spec) with
  | Ok (Proto.Accepted { id; depth }) -> Ok (`Accepted (id, depth))
  | Ok (Proto.Rejected { reason; depth; limit }) -> Ok (`Rejected (reason, depth, limit))
  | Ok (Proto.Error_reply m) -> Error (Remote m)
  | Ok _ -> Error (Remote "unexpected response to submit")
  | Error e -> Error e

let status t id =
  match request t (Proto.Status id) with
  | Ok (Proto.Job v) -> Ok v
  | Ok (Proto.Error_reply m) -> Error (Remote m)
  | Ok _ -> Error (Remote "unexpected response to status")
  | Error e -> Error e

let list t =
  match request t Proto.List with
  | Ok (Proto.Jobs vs) -> Ok vs
  | Ok (Proto.Error_reply m) -> Error (Remote m)
  | Ok _ -> Error (Remote "unexpected response to list")
  | Error e -> Error e

let stats t =
  match request t Proto.Stats with
  | Ok (Proto.Stats_reply s) -> Ok s
  | Ok (Proto.Error_reply m) -> Error (Remote m)
  | Ok _ -> Error (Remote "unexpected response to stats")
  | Error e -> Error e

let result t id =
  match request t (Proto.Result id) with
  | Ok (Proto.Result_reply { qor; _ }) -> Ok qor
  | Ok (Proto.Error_reply m) -> Error (Remote m)
  | Ok _ -> Error (Remote "unexpected response to result")
  | Error e -> Error e

let drain t =
  match request t Proto.Drain with
  | Ok Proto.Draining_reply -> Ok ()
  | Ok (Proto.Error_reply m) -> Error (Remote m)
  | Ok _ -> Error (Remote "unexpected response to drain")
  | Error e -> Error e

let watch t id ~on_event =
  match send t (Proto.Watch id) with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Conn (Printf.sprintf "send to daemon failed: %s" (Unix.error_message e)))
  | () ->
    let rec go () =
      match recv t with
      | Error e -> Error e
      | Ok (Proto.Job v) when Proto.state_terminal v.Proto.state -> Ok v
      | Ok (Proto.Job _) -> go ()
      | Ok (Proto.Progress { event; _ }) ->
        on_event event;
        go ()
      | Ok (Proto.Error_reply m) -> Error (Remote m)
      | Ok _ -> Error (Remote "unexpected response while watching")
    in
    go ()

(* Poll a job to a terminal state over this connection. Retries and
   parks count as terminal per Proto.state_terminal (a parked job will
   not finish in this daemon's lifetime). *)
let wait ?(poll_s = 0.05) ?(timeout_s = 120.0) t id =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match status t id with
    | Error e -> Error e
    | Ok v when Proto.state_terminal v.Proto.state -> Ok v
    | Ok _ ->
      if Unix.gettimeofday () > deadline then Error (Remote "wait timed out")
      else begin
        Unix.sleepf poll_s;
        go ()
      end
  in
  go ()
