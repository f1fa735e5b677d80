type entry = {
  seq : int;
  file : string;  (** basename inside the store directory *)
}

type t = {
  dir : string;
  keep : int;
  mutable next_seq : int;
  mutable entries : entry list;  (** oldest first *)
}

let entries t = t.entries

let path_of t e = Filename.concat t.dir e.file

let snap_name seq = Printf.sprintf "snap-%06d.ckpt" seq

let seq_of_name name =
  match String.length name = 16 && String.sub name 0 5 = "snap-" && Filename.check_suffix name ".ckpt" with
  | true -> int_of_string_opt (String.sub name 5 6)
  | false -> None

(* The numbered snapshot files are the store's only index: each one is
   self-validating, so the directory listing ordered by sequence number
   is all a reopen needs. *)
let snapshots dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun file -> Option.map (fun seq -> { seq; file }) (seq_of_name file))
    |> List.sort (fun a b -> compare a.seq b.seq)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?(keep = 4) ~fresh dir =
  match
    mkdir_p dir;
    if not (Sys.is_directory dir) then Error (dir ^ " is not a directory")
    else begin
      let on_disk = snapshots dir in
      let next_seq = 1 + List.fold_left (fun acc e -> max acc e.seq) 0 on_disk in
      (* A fresh run ignores whatever a previous run left behind; the
         old files stay on disk (unlisted) until [gc] sweeps them, so
         an accidental restart without --resume is recoverable. *)
      Ok { dir; keep = max 1 keep; next_seq; entries = (if fresh then [] else on_disk) }
    end
  with
  | r -> r
  | exception Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "%s: %s" arg (Unix.error_message e))
  | exception Sys_error msg -> Error msg

(* ---- retention ----------------------------------------------------- *)

(* Snapshots are cumulative, so the newest valid one supersedes every
   older one: retention keeps the [keep] newest as rollback targets and
   returns the entries it dropped. *)
let drop_older t keep =
  let excess = List.length t.entries - keep in
  let dropped = List.filteri (fun i _ -> i < excess) t.entries in
  t.entries <- List.filteri (fun i _ -> i >= excess) t.entries;
  dropped

let save t state =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let e = { seq; file = snap_name seq } in
  Envelope.write (path_of t e) (State.to_payload state);
  t.entries <- t.entries @ [ e ];
  List.iter (fun e -> try Sys.remove (path_of t e) with Sys_error _ -> ()) (drop_older t t.keep);
  e

(* ---- loading with rollback ----------------------------------------- *)

type loaded = {
  state : State.t;
  entry : entry;
  rejected : (entry * string) list;  (** newer snapshots that failed validation *)
}

let read_entry t e =
  match Envelope.read (path_of t e) with
  | Error msg -> Error msg
  | Ok payload -> State.of_payload payload

(* Walk newest -> oldest; the first snapshot that validates wins. Every
   rejected (torn, corrupted, missing) snapshot on the way is a
   rollback: recorded in the supervisor's degradation ledger so the QoR
   record shows the run did not resume from where it thought it
   would. *)
let load_latest t =
  let rec go rejected = function
    | [] -> None
    | e :: older ->
      (match read_entry t e with
      | Ok state -> Some { state; entry = e; rejected = List.rev rejected }
      | Error msg ->
        Guard.Supervisor.record ~stage:"ckpt.load" ~reason:"rollback"
          ~detail:(Printf.sprintf "snapshot %s rejected: %s" e.file msg);
        go ((e, msg) :: rejected) older)
  in
  go [] (List.rev t.entries)

(* Deterministic torn-write simulation for the [ckpt_load_corrupt]
   fault site and the tests: flip one payload byte in the middle of the
   newest snapshot and truncate its final byte, covering both
   corruption modes the envelope must reject. *)
let corrupt_latest t =
  match List.rev t.entries with
  | [] -> ()
  | e :: _ ->
    let path = path_of t e in
    (match
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic))
     with
    | exception Sys_error _ -> ()
    | contents when String.length contents < 2 -> ()
    | contents ->
      let b = Bytes.of_string contents in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
      let oc = open_out_bin path in
      output_bytes oc (Bytes.sub b 0 (Bytes.length b - 1));
      close_out oc)

(* ---- gc ------------------------------------------------------------ *)

(* Apply retention under [keep], then remove every snapshot file the
   store does not retain: the ones retention dropped and the ones a
   fresh run or a crash mid-save left unlisted. *)
let gc ?keep t =
  ignore (drop_older t (Option.fold ~none:t.keep ~some:(max 1) keep));
  let removed =
    List.filter_map
      (fun e -> if List.mem e t.entries then None else Some e.file)
      (snapshots t.dir)
  in
  List.iter
    (fun file -> try Sys.remove (Filename.concat t.dir file) with Sys_error _ -> ())
    removed;
  removed
