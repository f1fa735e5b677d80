type entry = { stage : string; reason : string; detail : string; count : int }

(* The ledger is a mutex-protected count table keyed by the full entry
   identity. Worker domains record concurrently; determinism of the
   reported ledger comes from sorting when it is read, not from recording
   order. *)
let mutex = Mutex.create ()

let table : (string * string * string, int) Hashtbl.t = Hashtbl.create 16

let active_flag = Atomic.make false

let active () = Atomic.get active_flag

let record ~stage ~reason ~detail =
  if active () then begin
    Mutex.lock mutex;
    let key = (stage, reason, detail) in
    let cur = Option.value ~default:0 (Hashtbl.find_opt table key) in
    Hashtbl.replace table key (cur + 1);
    Mutex.unlock mutex;
    (* Live feed: degradations surface on the progress stream the
       moment they are recorded, not just in the end-of-run ledger. *)
    Obs.Stream.degradation ~stage ~reason:(reason ^ ": " ^ detail)
  end

let degraded () =
  active ()
  && begin
    Mutex.lock mutex;
    let n = Hashtbl.length table in
    Mutex.unlock mutex;
    n > 0
  end

(* The sorted ledger so far; [reset] empties the table after reading. *)
let entries ~reset =
  Mutex.lock mutex;
  let entries =
    Hashtbl.fold
      (fun (stage, reason, detail) count acc -> { stage; reason; detail; count } :: acc)
      table []
  in
  if reset then Hashtbl.reset table;
  Mutex.unlock mutex;
  List.sort compare entries

let during f =
  let key e = (e.stage, e.reason, e.detail) in
  let before = List.map (fun e -> (key e, e.count)) (entries ~reset:false) in
  let v = f () in
  let since e =
    { e with count = e.count - Option.value ~default:0 (List.assoc_opt (key e) before) }
  in
  (v, List.filter (fun e -> e.count > 0) (List.map since (entries ~reset:false)))

let with_run ?(budgets = []) ?(faults = []) f =
  if active () then (f (), [])  (* nested: report through the outer run *)
  else begin
    Fault.arm faults;
    Budget.configure budgets;
    Atomic.set active_flag true;
    let finally () =
      Atomic.set active_flag false;
      Fault.disarm ();
      Budget.clear ()
    in
    let v = Fun.protect ~finally f in
    (v, entries ~reset:true)
  end

let recoverable = function
  | Diag.Fail _ | Out_of_memory | Stack_overflow -> false
  (* Whole-run terminations must unwind, not degrade: a timed-out or
     cancelled job has a terminal state of its own, so no stage may
     absorb these into a fallback. *)
  | Budget.Deadline _ | Budget.Cancelled _ -> false
  | Fault.Injected _ | Budget.Exceeded _ -> true
  | Failure _ | Invalid_argument _ | Not_found | Division_by_zero | Assert_failure _ ->
    true
  | _ -> false

let describe = function
  (* The hit ordinal is omitted on purpose: parallel starts race for
     hit numbers, and the ledger must dedup identically regardless of
     the schedule. *)
  | Fault.Injected { site; _ } -> ("fault", Printf.sprintf "injected fault at %s" site)
  | Budget.Exceeded { stage; budget_s } ->
    ("budget", Printf.sprintf "stage %s exceeded its %gs budget" stage budget_s)
  | e -> ("failure", Printexc.to_string e)

let protect ~stage ~fallback f =
  try f () with
  | e when active () && recoverable e ->
    let reason, detail = describe e in
    record ~stage ~reason ~detail;
    fallback detail

let budget_degraded entries = List.exists (fun e -> e.reason = "budget") entries

let entry_to_json e =
  Obs.Jsonx.Obj
    [ ("stage", Obs.Jsonx.String e.stage);
      ("reason", Obs.Jsonx.String e.reason);
      ("detail", Obs.Jsonx.String e.detail);
      ("count", Obs.Jsonx.Int e.count) ]

let pp_entry ppf e =
  Format.fprintf ppf "%s degraded (%s, x%d): %s" e.stage e.reason e.count e.detail
