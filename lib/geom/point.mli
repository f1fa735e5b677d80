(** 2-D points in micron units. *)

type t = { x : float; y : float }

val make : float -> float -> t

val origin : t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val manhattan : t -> t -> float
(** L1 distance — the wirelength-relevant metric. *)

val euclidean : t -> t -> float

val equal : t -> t -> bool
(** Exact float equality (used on points derived from identical
    computations only). *)

val pp : Format.formatter -> t -> unit
