(** Checkpointable flow state.

    A snapshot is the complete record of finished work in one
    [Hidap.place] invocation: the run fingerprint (inputs that must
    match for a resume to be meaningful), the per-instance floorplan
    results in completion order — each carrying the SA-derived block
    rectangles {e and} the RNG state after the instance, so a resumed
    run replays the identical pseudo-random stream — and the completed
    stage boundaries. Flipping is not recorded: it is deterministic and
    cheap, so a resumed run recomputes it.

    All floats are serialized as the hex image of their IEEE-754 bits:
    a loaded snapshot is bit-identical to the saved one, which is what
    makes resume-after-kill produce byte-identical placements. *)

type fingerprint = {
  circuit : string;
  seed : int;
  lambda : float;
  sa_starts : int;
  cells : int;
  macro_count : int;
}
(** Identity of a run: a snapshot only resumes a run with an equal
    fingerprint (bit-equal [lambda]). *)

type instance_entry = {
  nh : int;  (** HT node id of the floorplan instance (unique per run) *)
  depth : int;
  n_blocks : int;
  rects : Geom.Rect.t array;  (** block rectangles chosen by the SA *)
  sa_moves : int;
  rng_after : int64;  (** RNG state after the instance completed *)
}

type t = {
  fp : fingerprint;
  instances : instance_entry list;
  stages : string list;
}

val empty : fingerprint -> t

val equal : t -> t -> bool
(** Structural equality with bit-exact float comparison (NaN-safe). *)

val fingerprint_equal : fingerprint -> fingerprint -> bool

val to_payload : t -> string
(** Serialize for {!Envelope.write}. *)

val of_payload : string -> (t, string) result
(** Inverse of {!to_payload}; schema/version-checked. Unknown fields
    are ignored, so a snapshot carrying an older run's ["flip"] entry
    still loads. *)

val to_json : t -> Obs.Jsonx.t

val pp_fingerprint : Format.formatter -> fingerprint -> unit
