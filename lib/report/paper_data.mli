(** The published numbers of the paper's evaluation (Tables II and III),
    used to print paper-vs-measured comparisons. *)

type flow_row = {
  wl_m : float;  (** wirelength in meters *)
  wl_norm : float;  (** normalized to handFP *)
  grc_pct : float;
  wns_pct : float;
  tns : float;
}

type circuit_rows = {
  name : string;
  cells : int;
  macros : int;
  flows : (string * flow_row) list;
      (** by flow name: ["IndEDA"], ["HiDaP"] and ["handFP"] *)
}

val table3 : circuit_rows list
(** The 8 circuits of Table III. *)

type average = {
  avg_wl_norm : float;  (** average normalized WL *)
  avg_wns_pct : float;  (** average WNS% *)
  effort : string;  (** the published effort entry *)
}

val table2 : (string * average) list
(** Table II by flow name, in {!circuit_rows} [flows] order: WL 1.143 /
    1.013 / 1.000, WNS% -39.1 / -24.6 / -17.9. *)

val find : string -> circuit_rows option
