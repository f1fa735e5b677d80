exception Exceeded of { stage : string; budget_s : float }

exception Deadline of { deadline_s : float }

exception Cancelled of { stage : string }

(* One cell per configured stage; the deadline is CAS-published by the
   first poll so every domain races to the same value (the winner's
   timestamp is the stage start for everyone). *)
type cell = { stage : string; budget_s : float; deadline : float Atomic.t }

let cells : cell array Atomic.t = Atomic.make [||]

(* Whole-run controls, polled by every [check] regardless of stage:
   an absolute run deadline ([hidap serve] per-job deadlines) and a
   cooperative cancellation flag (daemon drain, SIGINT/SIGTERM on a
   checkpointed [place]). Both are single atomics so the unarmed cost
   per poll is two plain loads. *)
type run_deadline = { abs : float; deadline_s : float }

let deadline_cell : run_deadline option Atomic.t = Atomic.make None

let cancel_cell = Atomic.make false

let set_deadline seconds =
  Atomic.set deadline_cell
    (Some { abs = Obs.Clock.now_s () +. seconds; deadline_s = seconds })

let clear_deadline () = Atomic.set deadline_cell None

let deadline () =
  match Atomic.get deadline_cell with
  | None -> None
  | Some { deadline_s; _ } -> Some deadline_s

let request_cancel () = Atomic.set cancel_cell true

let clear_cancel () = Atomic.set cancel_cell false

let configure budgets =
  Atomic.set cells
    (Array.of_list
       (List.map
          (fun (stage, budget_s) -> { stage; budget_s; deadline = Atomic.make nan })
          budgets))

let clear () = Atomic.set cells [||]

let budgets () =
  Array.to_list (Array.map (fun c -> (c.stage, c.budget_s)) (Atomic.get cells))

let check ~stage =
  (* Cancellation outranks the deadline, which outranks stage budgets:
     a drain must park the job even when the deadline also passed. *)
  if Atomic.get cancel_cell then raise (Cancelled { stage });
  (match Atomic.get deadline_cell with
  | Some { abs; deadline_s } when Obs.Clock.now_s () > abs ->
    raise (Deadline { deadline_s })
  | Some _ | None -> ());
  let arr = Atomic.get cells in
  for i = 0 to Array.length arr - 1 do
    let c = arr.(i) in
    if c.stage = stage then begin
      (* Monotonic read: a wall-clock step backwards must not extend a
         stage budget (and a step forward must not cut it short). *)
      let now = Obs.Clock.now_s () in
      let dl = Atomic.get c.deadline in
      if Float.is_nan dl then
        (* First poll of the stage: publish the deadline. On a CAS race
           the earliest published value wins for every domain. *)
        ignore (Atomic.compare_and_set c.deadline dl (now +. c.budget_s))
      else if now > dl then raise (Exceeded { stage; budget_s = c.budget_s })
    end
  done

let parse s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  List.fold_left
    (fun acc p ->
      match acc with
      | Error _ as e -> e
      | Ok budgets ->
        (match String.index_opt p '=' with
        | None -> Error (Printf.sprintf "bad budget %S (expected stage=SECONDS)" p)
        | Some i ->
          let stage = String.sub p 0 i in
          let v = String.sub p (i + 1) (String.length p - i - 1) in
          (match float_of_string_opt v with
          | Some s when s >= 0.0 && Float.is_finite s -> Ok (budgets @ [ (stage, s) ])
          | Some _ | None ->
            Error (Printf.sprintf "bad budget duration %S for stage %S" v stage))))
    (Ok []) parts

let of_env () =
  match Sys.getenv_opt "HIDAP_BUDGET" with
  | None | Some "" -> Ok []
  | Some v -> parse v

let () =
  Printexc.register_printer (function
    | Exceeded { stage; budget_s } ->
      Some (Printf.sprintf "Guard.Budget.Exceeded(stage=%s, budget=%gs)" stage budget_s)
    | Deadline { deadline_s } ->
      Some (Printf.sprintf "Guard.Budget.Deadline(deadline=%gs)" deadline_s)
    | Cancelled { stage } ->
      Some (Printf.sprintf "Guard.Budget.Cancelled(stage=%s)" stage)
    | _ -> None)
