(** Design validator: reject or repair malformed inputs after parsing.

    [design] checks a parsed {!Netlist.Design.t} before elaboration and
    either repairs what it safely can — dropping dangling instance
    bindings, duplicate modules/cells/instances/ports/bindings, clamping
    non-finite or negative cell areas back to their defaults — or
    rejects the design with error diagnostics (missing modules,
    recursive instantiation, non-finite macro footprints).

    [flat] checks the elaborated netlist against the die: macros larger
    than the die (either orientation) and degenerate total area are
    diagnosed as warnings.

    With [strict], every warning escalates to an error, so a design
    that parses but needed repair is rejected instead of silently
    fixed. Diagnostic codes are listed in DESIGN.md section 10. *)

type repaired = {
  design : Netlist.Design.t;
      (** physically equal to the input when [repairs = 0] *)
  diags : Diag.t list;  (** in detection order *)
  repairs : int;
}

val design :
  ?strict:bool -> Netlist.Design.t -> (repaired, Diag.t list) result
(** [Error diags] contains every diagnostic of the run (errors and
    warnings), with at least one error. *)

val flat : ?strict:bool -> die:Geom.Rect.t -> Netlist.Flat.t -> Diag.t list
(** Die-aware checks on the elaborated netlist; diagnostics already
    carry their escalated severity under [strict]. *)

val errors : Diag.t list -> Diag.t list
(** The error-severity subset. *)
