(** One placement job and its on-disk footprint.

    A job lives in [<state_dir>/jobs/<id>/]: [job.json] (spec + state,
    written atomically via tmp + rename so a kill -9 never leaves a
    torn file), [ckpt/] (the job's checkpoint store, what makes
    recovery bit-identical), and [result.json] / [report.html] once
    done. *)

type t = {
  id : string;  (** ["j%04d"] of [seq] *)
  seq : int;  (** submission order, unique within a state dir *)
  mutable spec : Proto.submit;
      (** the daemon drops the netlist text ([hnl]) once the job is
          done; [job.json] keeps it *)
  mutable state : Proto.state;
  mutable attempts : int;
  mutable detail : string;
}

val seq_of_id : string -> int option
(** The [seq] a job id (a job dir's name) encodes, if it is one. *)

val make : seq:int -> Proto.submit -> t
(** A fresh pending job. *)

val view : t -> Proto.job_view

val dir : state_dir:string -> string -> string

val ckpt_dir : state_dir:string -> string -> string

val result_path : state_dir:string -> string -> string

val report_path : state_dir:string -> string -> string

val mkdir_p : string -> unit

val save : state_dir:string -> t -> unit
(** Atomically (re)write [job.json]. *)

val load : state_dir:string -> string -> (t, string) result

val load_all : state_dir:string -> t list * (string * string) list
(** Every job with a readable [job.json], sorted by [seq], and the ids
    of the job dirs skipped, with their errors. Torn, foreign or
    malformed entries are skipped — recovery starts from whatever
    survived. *)

val to_json : t -> Obs.Jsonx.t

val of_json : Obs.Jsonx.t -> (t, string) result
