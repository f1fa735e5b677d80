(** Binary min-heap keyed by floats.

    Used by the shortest-path style searches in target-area assignment and
    the timing substrate. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> key:float -> 'a -> unit

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the entry with the smallest key. *)
