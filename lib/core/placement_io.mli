(** Plain-text placement persistence (a DEF-like interchange).

    One line per macro: [path x y w h orientation], preceded by a header
    carrying the die rectangle. Lets a placement be saved from one tool
    invocation and reloaded for evaluation or visualization in
    another. *)

type macro_placement = {
  fid : int;  (** flat node id of the macro *)
  rect : Geom.Rect.t;
  orient : Geom.Orientation.t;
}
(** One placed macro. Re-exported as {!Hidap.macro_placement}, the one
    macro-placement type every flow and the evaluation share. *)

type entry = {
  path : string;  (** hierarchical macro name *)
  rect : Geom.Rect.t;
  orient : Geom.Orientation.t;
}

type t = {
  die : Geom.Rect.t;
  entries : entry list;
}

val make : flat:Netlist.Flat.t -> die:Geom.Rect.t -> placements:macro_placement list -> t
(** Build from flat macro ids (paths are resolved through [flat]). *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Error messages carry the offending line number. *)

val save : string -> t -> unit

val load : string -> (t, string) result

val resolve : Netlist.Flat.t -> t -> (macro_placement list, string) result
(** Map entries back to flat node ids by path; fails when a path is
    unknown or does not name a macro. *)
