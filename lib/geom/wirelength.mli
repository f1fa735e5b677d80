(** Wirelength estimation primitives. *)

val hpwl : Point.t list -> float
(** Half-perimeter wirelength of a pin cloud; 0 for fewer than two pins. *)

val star : Point.t list -> float
(** Star model: sum of Manhattan distances from the centroid. *)
