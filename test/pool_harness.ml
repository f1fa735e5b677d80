(* Deterministic check of Serve.Pool's descriptor hygiene between
   sibling workers.

   A worker whose pipe has hit EOF but which is not yet reaped still
   holds its slot, while the parent has already closed that pipe's
   read end. The next Unix.pipe may hand that fd number out again as
   the new worker's write end; if spawn still listed the stale number
   among the sibling pipes the child must close, the child would close
   its own write end and die before reporting.

   The harness forces that reuse. POSIX returns the lowest free
   descriptor, so holding a placeholder fd below worker A's pipe and
   freeing it after A's EOF makes worker B's pipe come back as
   (placeholder, A's old read end). B must still deliver its final
   frame and exit 0.

   Runs as its own process: Pool.spawn forks, which OCaml 5 refuses in
   a process that has ever created a domain (the alcotest binary has).

   Usage: pool_harness. Exit 0 on success. *)

module Pool = Serve.Pool

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pool_harness: FAIL: " ^ s);
      exit 1)
    fmt

let frame = {|{"event":"job-attempt-end","outcome":"done","detail":"ok"}|} ^ "\n"

(* A minimal stand-in for Worker.exec: close what spawn says to close,
   then report on the pipe. Writing to a closed pipe_w raises EBADF. *)
let child ~pipe_w ~close_fds =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) close_fds;
  match Unix.write_substring pipe_w frame 0 (String.length frame) with
  | _ -> Unix._exit 0
  | exception Unix.Unix_error _ -> Unix._exit 3

let spawn pool seq =
  let job =
    Serve.Job.make ~seq { Serve.Proto.default_submit with label = "pool" }
  in
  match Pool.spawn pool ~job ~extra_close:[] ~child with
  | Pool.Spawned _ -> ()
  | Pool.No_slot -> fail "no free slot for worker %d" seq
  | Pool.Fork_failed e -> fail "fork for worker %d: %s" seq e

let only_pipe pool =
  match Pool.pipe_fds pool with
  | [ fd ] -> fd
  | fds -> fail "expected one open pipe, pool holds %d" (List.length fds)

(* Feed [fd] to the pool until its worker's pipe reaches EOF. *)
let drain_to_eof pool fd =
  while Pool.pipe_fds pool <> [] do
    match Unix.select [ fd ] [] [] 10.0 with
    | [], _, _ -> fail "worker pipe silent for 10 s"
    | _ -> Pool.handle_readable pool fd ~on_event:(fun _ _ -> ())
  done

let reap_all pool ~n =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go acc =
    let acc = acc @ Pool.reap pool ~on_event:(fun _ _ -> ()) in
    if List.length acc >= n then acc
    else if Unix.gettimeofday () > deadline then
      fail "only %d of %d workers reaped within 10 s" (List.length acc) n
    else (
      Unix.sleepf 0.01;
      go acc)
  in
  go []

let () =
  let pool = Pool.create ~size:2 ~stall_s:60.0 ~deadline_grace_s:1.0 in
  let placeholder = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  spawn pool 1;
  (* A reports and exits; its pipe reaches EOF, its slot stays held. *)
  drain_to_eof pool (only_pipe pool);
  Unix.close placeholder;
  spawn pool 2;
  if only_pipe pool <> placeholder then
    fail "worker B's read end did not take the freed placeholder fd";
  drain_to_eof pool placeholder;
  List.iter
    (fun (r : Pool.running) ->
      match (r.status, r.frame) with
      | Some (Unix.WEXITED 0), Some ("done", _) -> ()
      | Some (Unix.WEXITED c), _ ->
        fail "worker %s exited %d without its frame" r.job.Serve.Job.id c
      | _ -> fail "worker %s did not exit cleanly" r.job.Serve.Job.id)
    (reap_all pool ~n:2)
