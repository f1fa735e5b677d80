(* One placement job and its on-disk footprint.

   Every job owns a directory <state_dir>/jobs/<id>/ holding:
     job.json     — spec + mutable state/attempts/detail (this module)
     ckpt/        — the job's Ckpt checkpoint store
     result.json  — QoR ledger once done
     report.html  — rendered report once done

   job.json is written atomically (tmp + rename), so a kill -9 at any
   point leaves either the previous state or the new one, never a torn
   file; recovery skips a job whose job.json does not parse or decode,
   and names it. *)

module J = Obs.Jsonx

let job_schema = "hidap-serve-job"

let job_version = 1

type t = {
  id : string;
  seq : int;
  mutable spec : Proto.submit;
  mutable state : Proto.state;
  mutable attempts : int;
  mutable detail : string;
}

let id_of_seq seq = Printf.sprintf "j%04d" seq

let seq_of_id id = Scanf.sscanf_opt id "j%d%!" Fun.id

let make ~seq spec =
  { id = id_of_seq seq; seq; spec; state = Proto.Pending; attempts = 0; detail = "" }

let jobs_root state_dir = Filename.concat state_dir "jobs"

let dir ~state_dir id = Filename.concat (jobs_root state_dir) id

let ckpt_dir ~state_dir id = Filename.concat (dir ~state_dir id) "ckpt"

let meta_path ~state_dir id = Filename.concat (dir ~state_dir id) "job.json"

let result_path ~state_dir id = Filename.concat (dir ~state_dir id) "result.json"

let report_path ~state_dir id = Filename.concat (dir ~state_dir id) "report.html"

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let view t =
  { Proto.id = t.id; label = t.spec.Proto.label; state = t.state;
    attempts = t.attempts; priority = t.spec.Proto.priority; detail = t.detail }

let to_json t =
  J.Obj
    (( ("schema", J.String job_schema)
     :: ("version", J.Int job_version)
     :: ("id", J.String t.id)
     :: ("seq", J.Int t.seq)
     :: ("state", J.String (Proto.state_to_string t.state))
     :: ("attempts", J.Int t.attempts)
     :: ("detail", J.String t.detail)
     :: ("spec", J.Obj (Proto.submit_fields t.spec))
     :: [] ))

let save ~state_dir t =
  let d = dir ~state_dir t.id in
  mkdir_p d;
  let path = meta_path ~state_dir t.id in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (J.to_string ~compact:true (to_json t));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

open J.Syntax

(* A job file without schema or version loads as the current one. *)
let of_json j =
  let* s = J.field_or "schema" ~default:job_schema J.string j in
  if s <> job_schema then Error (Printf.sprintf "unexpected schema %S" s)
  else
    let* v = J.field_or "version" ~default:job_version J.int j in
    if v > job_version then
      Error (Printf.sprintf "job version %d is newer than %d" v job_version)
    else
      let* id = J.field "id" J.string j in
      let* seq = J.field "seq" J.int j in
      let* state = J.field "state" (J.enum "state" Proto.state_of_string) j in
      let* attempts = J.field_or "attempts" ~default:0 J.int j in
      let* detail = J.field_or "detail" ~default:"" J.string j in
      let* spec = J.field_or "spec" ~default:Proto.default_submit Proto.submit_of_json j in
      Ok { id; seq; spec; state; attempts; detail }

let load ~state_dir id =
  match J.parse_file (meta_path ~state_dir id) with
  | Error e -> Error e
  | Ok j -> of_json j

(* Scan the state directory for every job with a readable job.json.
   Unreadable or torn entries are skipped, not fatal: recovery must
   start with whatever survived, and reports the skipped dirs with
   their errors. Sorted by submission sequence so re-enqueueing
   preserves the original order. *)
let load_all ~state_dir =
  let root = jobs_root state_dir in
  let ids =
    match Sys.readdir root with
    | entries -> List.sort compare (Array.to_list entries)
    | exception Sys_error _ -> []
  in
  let jobs, skipped =
    List.partition_map
      (fun id ->
        match load ~state_dir id with
        | Ok t -> Either.Left t
        | Error e -> Either.Right (id, e))
      ids
  in
  (List.sort (fun a b -> compare a.seq b.seq) jobs, skipped)
