(** Checkpoint directory: numbered snapshots, and nothing else.

    A store owns one directory holding [snap-NNNNNN.ckpt] envelope
    files. The files are the index: each is self-validating, and their
    sequence numbers order them. Snapshots are written through
    {!Envelope.write}, so every file is atomic-or-rejected.

    Snapshots are cumulative, so the newest valid one supersedes every
    older one, and retention keeps the [keep] newest. Loading walks
    newest to oldest and falls back past torn or corrupted snapshots,
    recording each rollback in the {!Guard.Supervisor} degradation
    ledger. *)

type entry = { seq : int; file : string }

type t

val open_ : ?keep:int -> fresh:bool -> string -> (t, string) result
(** Open (creating if needed) a checkpoint directory. Both modes number
    new snapshots past the highest one on disk. [fresh] starts with no
    entries, ignoring — but not deleting — existing snapshots, so its
    saves and retention never touch them; [fresh:false] adopts every
    snapshot file in the directory. [keep] (default 4) is the retention
    window. *)

val entries : t -> entry list
(** Oldest first. *)

val save : t -> State.t -> entry
(** Write a snapshot and drop this store's entries older than the
    newest [keep]. Raises on I/O failure (callers degrade via
    {!Guard.Supervisor.protect}). *)

type loaded = {
  state : State.t;
  entry : entry;
  rejected : (entry * string) list;
}

val load_latest : t -> loaded option
(** Most recent snapshot that validates, with the newer rejected ones;
    [None] when the store holds no valid snapshot. Rollbacks are
    recorded in the degradation ledger of the active supervised run. *)

val read_entry : t -> entry -> (State.t, string) result
(** Validate and decode one snapshot. *)

val corrupt_latest : t -> unit
(** Deterministically corrupt the newest snapshot (flip one payload
    byte, truncate the last byte) — the [ckpt_load_corrupt] fault
    action, also used by the tests. *)

val gc : ?keep:int -> t -> string list
(** Re-apply retention (optionally under a new [keep]) and remove every
    snapshot file in the directory that the store does not retain.
    Returns the removed file names, oldest first. *)
