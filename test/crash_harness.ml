(* Kill-based crash-recovery harness.

   Proves the checkpoint resume contract the only way that counts: run
   `hidap place` as a child process with checkpointing on, SIGKILL it
   mid-flow, resume, repeat — and when a run finally completes, its
   saved placement must be byte-identical to an uninterrupted run's.
   The kill follows the child's progress, not the clock: the harness
   reads the child's progress stream and SIGKILLs it right after its
   k-th checkpoint event, with k drawn from a seeded sequence, so a run
   that finishes in a fraction of a second is still cut mid-flow. A run
   where no kill landed fails.

   Usage: crash_harness HIDAP_BIN [JOBS]
   JOBS defaults to $HIDAP_JOBS, then 1. Exit 0 on success. *)

let log fmt = Printf.eprintf ("crash_harness: " ^^ fmt ^^ "\n%!")

let fail fmt = Printf.ksprintf (fun s -> log "FAIL: %s" s; exit 1) fmt

(* Deterministic kill points: SplitMix64-ish mixing, fixed seed, so a
   failing sequence of kill points can be replayed. A c1 run writes 13
   snapshots, so three kills of at most 4 checkpoints each still leave
   the flow unfinished. *)
let rng_state = ref 0x2545F4914F6CDD1DL

let next_kill_at () =
  let s = Int64.add !rng_state 0x9E3779B97F4A7C15L in
  rng_state := s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  1 + Int64.to_int (Int64.unsigned_rem z 4L)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Work in $CRASH_HARNESS_DIR when set (CI uploads it as an artifact
   on failure, so it is kept), else in a temp dir removed when the
   harness exits, pass or fail. *)
let fresh_dir () =
  match Sys.getenv_opt "CRASH_HARNESS_DIR" with
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir
  | None ->
    let dir = Filename.temp_file "hidap-crash" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    at_exit (fun () -> if Sys.file_exists dir then remove dir);
    dir

let place_args ~hidap ~jobs ~save extra =
  Array.of_list
    ([ hidap; "place"; "-c"; "c1"; "--seed"; "7"; "-j"; string_of_int jobs;
       "--save"; save ]
    @ extra)

let spawn ?stderr args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err = Option.value stderr ~default:devnull in
  let pid = Unix.create_process args.(0) args Unix.stdin devnull err in
  Unix.close devnull;
  pid

let run_to_completion args =
  let pid = spawn args in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1

let is_checkpoint line =
  let key = {|"event":"checkpoint"|} in
  let n = String.length key in
  let rec at i =
    i + n <= String.length line && (String.sub line i n = key || at (i + 1))
  in
  at 0

(* Run the child with its progress stream on its stderr, a pipe the
   harness reads, and SIGKILL it right after its [k]-th checkpoint
   event. Returns [`Killed] when the kill landed, [`Done code] when the
   child ended first. *)
let run_and_kill args ~k =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stderr:w (Array.append args [| "--progress-fd"; "2" |]) in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec read seen =
    match input_line ic with
    | line when is_checkpoint line ->
      if seen + 1 = k then Unix.kill pid Sys.sigkill else read (seen + 1)
    | _ -> read seen
    | exception End_of_file -> ()
  in
  read 0;
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> `Killed
  | _, Unix.WEXITED code -> `Done code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> `Done (-1)

let () =
  let hidap = if Array.length Sys.argv > 1 then Sys.argv.(1) else fail "usage: crash_harness HIDAP_BIN [JOBS]" in
  let jobs =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2)
    else match Sys.getenv_opt "HIDAP_JOBS" with
      | Some s -> (try int_of_string s with _ -> 1)
      | None -> 1
  in
  let work = fresh_dir () in
  let clean_place = Filename.concat work "clean.place" in
  let out_place = Filename.concat work "out.place" in
  let ckpt_dir = Filename.concat work "ckpt" in
  log "jobs=%d work=%s" jobs work;

  (* 1. the uninterrupted reference run, no checkpointing at all *)
  let code = run_to_completion (place_args ~hidap ~jobs ~save:clean_place []) in
  if code <> 0 then fail "reference run exited %d" code;
  let reference = read_file clean_place in

  (* 2. kill/resume loop: every attempt passes --resume (an empty store
     starts fresh), so the same command line retries idempotently. *)
  let ckpt_args =
    place_args ~hidap ~jobs ~save:out_place
      [ "--checkpoint-dir"; ckpt_dir; "--resume" ]
  in
  let kills = ref 0 in
  let completed = ref false in
  let attempts = ref 0 in
  while not !completed && !attempts < 25 do
    incr attempts;
    if !kills < 3 then begin
      let k = next_kill_at () in
      match run_and_kill ckpt_args ~k with
      | `Killed ->
        incr kills;
        log "attempt %d: killed after checkpoint %d (%d so far)" !attempts k !kills
      | `Done 0 ->
        log "attempt %d: finished before checkpoint %d" !attempts k;
        completed := true
      | `Done code -> fail "attempt %d: child exited %d" !attempts code
    end
    else begin
      match run_to_completion ckpt_args with
      | 0 -> completed := true
      | code -> fail "final attempt exited %d" code
    end
  done;
  if not !completed then fail "no attempt completed in %d tries" !attempts;
  if !kills = 0 then fail "no kill landed: the resume path was not exercised";

  (* 3. the recovered placement must be byte-identical *)
  let recovered = read_file out_place in
  if not (String.equal reference recovered) then
    fail "recovered placement differs from the uninterrupted run (%d kills)" !kills;
  log "byte-identical after %d kill(s) and %d attempt(s)" !kills !attempts;

  (* 4. one more full-replay resume: everything comes from the store *)
  (match run_to_completion ckpt_args with
  | 0 -> ()
  | code -> fail "full-replay resume exited %d" code);
  if not (String.equal reference (read_file out_place)) then
    fail "full-replay resume placement differs";
  log "full-replay resume byte-identical";
  log "PASS"
