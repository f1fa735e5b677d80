(** Small statistics helpers used by the evaluation harness. *)

val geometric_mean : float list -> float
(** Geometric mean of strictly positive values; the paper reports
    wirelength averages this way "to reduce sensitivity to extreme
    values". Raises [Invalid_argument] on an empty list or a
    non-positive element. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on empty input. *)

val minimum : float list -> float
val maximum : float list -> float

val stddev : float list -> float
(** Population standard deviation; 0 for singleton lists. *)

val median : float list -> float

val clamp : lo:float -> hi:float -> float -> float

val clamp_int : lo:int -> hi:int -> int -> int
