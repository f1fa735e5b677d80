(* Versioned NDJSON progress event stream.

   One JSON object per line, every line self-describing:
   {"schema":"hidap-progress","version":2,"event":...,"t_us":...}.
   Emission is gated on one atomic flag and serialized with a mutex so
   worker domains can report concurrently; the stream is write-only
   telemetry and never touches any RNG, so enabling it cannot change a
   placement (DESIGN.md §9/§12). *)

let schema = "hidap-progress"

(* v2: sa-progress gained a [cost_terms] object (the named breakdown of
   [best_cost], DESIGN.md §13). Purely field-additive over v1. *)
let version = 2

type sink = {
  oc : out_channel;
  lock : Mutex.t;
  close_oc : bool;
  mutable hb : (unit Domain.t * Unix.file_descr * Unix.file_descr) option;
      (** the heartbeat domain and its wake-up pipe (read end, write end) *)
  mutable closed : bool;  (** guarded by [lock]; set by {!disable} *)
}

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let current : sink option ref = ref None

let emit event fields =
  if enabled () then
    match !current with
    | None -> ()
    | Some s ->
      let line =
        Jsonx.to_string ~compact:true
          (Jsonx.Obj
             (( ("schema", Jsonx.String schema)
              :: ("version", Jsonx.Int version)
              :: ("event", Jsonx.String event)
              :: ("t_us", Jsonx.Float (Clock.now_us ()))
              :: fields )))
      in
      Mutex.lock s.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.lock)
        (fun () ->
          (* A racing [disable] may have closed the channel between our
             read of [current] and taking the lock; the closed flag is
             flipped under this same lock, so checking it here means a
             line is either written whole before the close or skipped
             entirely — never torn, never a write-after-close. *)
          if not s.closed then begin
            output_string s.oc line;
            output_char s.oc '\n';
            flush s.oc
          end)

let heartbeat () = emit "heartbeat" []

(* Emit a heartbeat, then wait [period] on the wake-up pipe; a byte on
   it (written by [disable]) ends the domain at once. *)
let heartbeat_loop ~period wake =
  let rec wait deadline =
    match Unix.select [ wake ] [] [] (Float.max 0.0 (deadline -. Unix.gettimeofday ())) with
    | [], _, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait deadline
  in
  let rec beat () =
    heartbeat ();
    if wait (Unix.gettimeofday () +. period) then beat ()
  in
  beat ()

let enable ?(heartbeat_s = 1.0) ?(close_on_disable = false) oc =
  if not (enabled ()) then begin
    let s =
      { oc; lock = Mutex.create (); close_oc = close_on_disable; hb = None; closed = false }
    in
    current := Some s;
    Atomic.set enabled_flag true;
    if heartbeat_s > 0.0 then begin
      let r, w = Unix.pipe ~cloexec:true () in
      s.hb <- Some (Domain.spawn (fun () -> heartbeat_loop ~period:heartbeat_s r), r, w)
    end
  end

let disable () =
  match !current with
  | None -> ()
  | Some s ->
    (* Wake and join the heartbeat before touching the channel: the
       heartbeat domain emits under [s.lock], so it must be gone (not
       merely signalled) before the close. Joining outside the lock is
       required — holding it here while the heartbeat waits for it
       would deadlock. *)
    Option.iter
      (fun (hb, r, w) ->
        ignore (Unix.write_substring w "x" 0 1);
        Domain.join hb;
        Unix.close r;
        Unix.close w)
      s.hb;
    s.hb <- None;
    Atomic.set enabled_flag false;
    current := None;
    (* Close under the sink lock so an [emit] that read [current] just
       before we cleared it either finishes its whole line first or
       observes [closed] and skips. Flush/close failures (e.g. a
       reader that vanished) are swallowed: disable sits on exception
       paths and must never mask the original error. *)
    Mutex.lock s.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.lock)
      (fun () ->
        if not s.closed then begin
          s.closed <- true;
          (try flush s.oc with Sys_error _ -> ());
          if s.close_oc then try close_out s.oc with Sys_error _ -> ()
        end)

(* ---- event helpers ------------------------------------------------ *)

let run_start ~circuit ~seed ~jobs =
  emit "run-start"
    [ ("circuit", Jsonx.String circuit); ("seed", Jsonx.Int seed);
      ("jobs", Jsonx.Int jobs) ]

let run_end ~status = emit "run-end" [ ("status", Jsonx.String status) ]

let stage_start name = emit "stage-start" [ ("stage", Jsonx.String name) ]

let stage_end name ~dur_us ~ok =
  emit "stage-end"
    [ ("stage", Jsonx.String name); ("dur_us", Jsonx.Float dur_us);
      ("ok", Jsonx.Bool ok) ]

let with_stage name f =
  if not (enabled ()) then f ()
  else begin
    stage_start name;
    let t0 = Clock.now_us () in
    match f () with
    | v ->
      stage_end name ~dur_us:(Clock.now_us () -. t0) ~ok:true;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      stage_end name ~dur_us:(Clock.now_us () -. t0) ~ok:false;
      Printexc.raise_with_backtrace e bt
  end

let sa_progress ~instance ?instances ~temperature ~best_cost ?cost_terms ~moves
    ~moves_per_s () =
  emit "sa-progress"
    [ ("instance", Jsonx.Int instance);
      ( "instances",
        match instances with Some n -> Jsonx.Int n | None -> Jsonx.Null );
      ("temperature", Jsonx.Float temperature);
      ("best_cost", Jsonx.Float best_cost);
      ( "cost_terms",
        match cost_terms with
        | None -> Jsonx.Null
        | Some terms ->
          Jsonx.Obj (List.map (fun (name, v) -> (name, Jsonx.Float v)) terms) );
      ("moves", Jsonx.Int moves);
      ("moves_per_s", Jsonx.Float moves_per_s) ]

let checkpoint ~seq ~file =
  emit "checkpoint" [ ("seq", Jsonx.Int seq); ("file", Jsonx.String file) ]

let degradation ~stage ~reason =
  emit "degradation"
    [ ("stage", Jsonx.String stage); ("reason", Jsonx.String reason) ]
