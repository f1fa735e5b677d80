type action = Raise | Stall of float

type spec = { site : string; nth : int; action : action }

exception Injected of { site : string; hit : int }

(* Registry of every site the flow declares with [hit]. Names are
   stage-scoped so the CLI / CI can iterate them; each entry documents
   the degradation its fallback applies. *)
let sites =
  [ ( "floorplan.sa",
      "annealing start fails; the instance keeps the affinity-greedy chain layout" );
    ( "floorplan.affinity",
      "dataflow affinity unavailable; the instance is laid out area-only" );
    ("flipping.run", "macro flipping fails; base orientations are kept");
    ("cellplace.run", "cell placement fails; centroid-seeded positions are kept");
    ( "ckpt_write",
      "checkpoint snapshot write fails; the run continues without that snapshot" );
    ( "ckpt_load_corrupt",
      "resume finds the latest snapshot torn (bytes flipped, tail truncated); the \
       store rolls back to the most recent valid snapshot" );
    ( "serve.accept",
      "a client connection fails to accept; the daemon logs and keeps serving" );
    ( "serve.write",
      "a client response write fails; the connection is dropped, the job continues" );
    ( "serve.worker",
      "a job attempt dies at start; the job retries with capped backoff up to its \
       retry limit" );
    ( "serve.worker_kill",
      "the worker process SIGKILLs itself mid-job, right after its first \
       checkpoint snapshot; the daemon classifies the signaled exit as \
       worker-lost and retries within the job's retry budget" );
    ( "serve.worker_hang",
      "the worker process stalls before emitting any progress; the hung-job \
       watchdog SIGKILLs it and the job retries" ) ]

let known name = List.mem_assoc name sites

(* Armed state: immutable spec array plus one atomic hit counter per
   spec, published together so workers always see a consistent pair. *)
type armed_state = { specs : spec array; counts : int Atomic.t array }

let state : armed_state option Atomic.t = Atomic.make None

let arm specs =
  let specs = Array.of_list specs in
  let counts = Array.map (fun _ -> Atomic.make 0) specs in
  Atomic.set state (Some { specs; counts })

let disarm () = Atomic.set state None

let armed () =
  match Atomic.get state with
  | None -> []
  | Some { specs; _ } -> Array.to_list specs

let hit site =
  match Atomic.get state with
  | None -> ()
  | Some { specs; counts } ->
    Array.iteri
      (fun i spec ->
        if spec.site = site then begin
          let n = Atomic.fetch_and_add counts.(i) 1 + 1 in
          if n >= spec.nth then
            match spec.action with
            | Raise -> raise (Injected { site; hit = n })
            | Stall s -> Unix.sleepf s
        end)
      specs

let parse_one s =
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> Error "empty fault spec"
  | site :: rest ->
    if not (known site) then
      Error
        (Printf.sprintf "unknown fault site %S (known: %s)" site
           (String.concat ", " (List.map fst sites)))
    else
      let rec opts nth action = function
        | [] -> Ok { site; nth; action }
        | part :: rest ->
          (match String.index_opt part '=' with
          | Some i when String.sub part 0 i = "stall" ->
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            (match float_of_string_opt v with
            | Some s when s >= 0.0 -> opts nth (Stall s) rest
            | Some _ | None ->
              Error (Printf.sprintf "bad stall duration %S in fault spec %S" v site))
          | _ ->
            (match int_of_string_opt part with
            | Some n when n >= 1 -> opts n action rest
            | Some _ | None ->
              Error (Printf.sprintf "bad hit count %S in fault spec %S" part site)))
      in
      opts 1 Raise rest

let parse s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  List.fold_left
    (fun acc p ->
      match acc with
      | Error _ as e -> e
      | Ok specs -> (match parse_one p with Ok sp -> Ok (specs @ [ sp ]) | Error _ as e -> e))
    (Ok []) parts

let of_env () =
  match Sys.getenv_opt "HIDAP_FAULT" with
  | None | Some "" -> Ok []
  | Some v -> parse v

let () =
  Printexc.register_printer (function
    | Injected { site; hit } ->
      Some (Printf.sprintf "Guard.Fault.Injected(site=%s, hit=%d)" site hit)
    | _ -> None)
