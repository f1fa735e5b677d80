type t = {
  store : Store.t;
  every : int;
  mutable state : State.t;
  lookup : (int, State.instance_entry) Hashtbl.t;  (* nh -> resumed entry *)
  resumed_flip : State.flip_entry option;
  resumed_from : string option;
  mutable new_units : int;  (* completed units since the last snapshot *)
  mutable written : int;
  mutable reused : int;
  mutex : Mutex.t;
  on_save : unit -> unit;
}

type summary = {
  resumed_from : string option;
  snapshots_written : int;
  instances_reused : int;
}

let resumed_from (t : t) = t.resumed_from

let state t = t.state

let summary (t : t) =
  { resumed_from = t.resumed_from;
    snapshots_written = t.written;
    instances_reused = t.reused }

let make ~store ~every ~state ~resumed_from ~on_save =
  let lookup = Hashtbl.create 64 in
  List.iter (fun (e : State.instance_entry) -> Hashtbl.replace lookup e.State.nh e) state.State.instances;
  { store; every = max 1 every; state; lookup;
    resumed_flip = state.State.flip; resumed_from;
    new_units = 0; written = 0; reused = 0; mutex = Mutex.create (); on_save }

(* Resume loading honors the [ckpt_load_corrupt] injection site: the
   armed fault corrupts the newest snapshot on disk and retries, so the
   CRC-rejection and rollback paths are exercised end to end, exactly
   as a real torn write would drive them. *)
let load_for_resume store =
  Obs.Span.with_ ~name:"ckpt.load" (fun () ->
      let loaded =
        Guard.Supervisor.protect ~stage:"ckpt_load_corrupt"
          ~fallback:(fun _ ->
            Store.corrupt_latest store;
            Store.load_latest store)
          (fun () ->
            Guard.Fault.hit "ckpt_load_corrupt";
            Store.load_latest store)
      in
      (match loaded with
      | Some l ->
        Obs.Span.attr_int "seq" l.Store.entry.Store.seq;
        Obs.Span.attr_int "rejected" (List.length l.Store.rejected)
      | None -> ());
      loaded)

let start ?(keep = 4) ?(every = 1) ?(on_save = ignore) ~dir ~resume fp =
  match Store.open_ ~keep ~fresh:(not resume) dir with
  | Error msg ->
    Error (Guard.Diag.error ~code:"ckpt-io" ~stage:"ckpt" (dir ^ ": " ^ msg))
  | Ok store ->
    if not resume then
      Ok (make ~store ~every ~state:(State.empty fp) ~resumed_from:None ~on_save)
    else begin
      match load_for_resume store with
      | None ->
        (* Nothing (valid) to resume from: run from scratch in the same
           directory so retry loops are idempotent. *)
        Ok (make ~store ~every ~state:(State.empty fp) ~resumed_from:None ~on_save)
      | Some { Store.state; entry; rejected = _ } ->
        if not (State.fingerprint_equal state.State.fp fp) then
          Error
            (Guard.Diag.error ~code:"ckpt-mismatch" ~stage:"ckpt"
               (Format.asprintf
                  "checkpoint %s was written by a different run (%a) than the one \
                   being resumed (%a)"
                  entry.Store.file State.pp_fingerprint state.State.fp
                  State.pp_fingerprint fp))
        else
          Ok (make ~store ~every ~state ~resumed_from:(Some entry.Store.file) ~on_save)
    end

(* Snapshot writes degrade, never kill: a full disk or an injected
   [ckpt_write] fault costs the checkpoint, not the placement. *)
let save_now t ~stage =
  Guard.Supervisor.protect ~stage:"ckpt_write"
    ~fallback:(fun _ -> ())
    (fun () ->
      Obs.Span.with_ ~name:"ckpt.save" (fun () ->
          let e = Store.save t.store ~stage t.state in
          t.written <- t.written + 1;
          Obs.Span.attr_int "seq" e.Store.seq;
          Obs.Span.attr_int "instances" (List.length t.state.State.instances);
          Obs.Stream.checkpoint ~seq:e.Store.seq ~file:e.Store.file;
          t.on_save ()));
  t.new_units <- 0

let lookup_instance t ~nh ~n_blocks =
  match Hashtbl.find_opt t.lookup nh with
  | Some e when e.State.n_blocks = n_blocks ->
    Mutex.lock t.mutex;
    t.reused <- t.reused + 1;
    Mutex.unlock t.mutex;
    Some e
  | Some _ | None -> None

let instance_done t ~nh ~depth ~n_blocks ~rects ~sa_moves ~rng_after =
  Mutex.lock t.mutex;
  let entry = { State.nh; depth; n_blocks; rects; sa_moves; rng_after } in
  t.state <- { t.state with State.instances = t.state.State.instances @ [ entry ] };
  Hashtbl.replace t.lookup nh entry;
  t.new_units <- t.new_units + 1;
  let due = t.new_units >= t.every in
  Mutex.unlock t.mutex;
  if due then save_now t ~stage:false

let lookup_flip t = t.resumed_flip

let flip_done t flip =
  Mutex.lock t.mutex;
  t.state <- { t.state with State.flip = Some flip };
  Mutex.unlock t.mutex

let stage_done t name =
  let fresh =
    Mutex.lock t.mutex;
    let fresh = not (List.mem name t.state.State.stages) in
    if fresh then t.state <- { t.state with State.stages = t.state.State.stages @ [ name ] };
    Mutex.unlock t.mutex;
    fresh
  in
  if fresh then save_now t ~stage:true
