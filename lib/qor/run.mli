(** The run paths every entry point shares (DESIGN.md §8).

    {!load} is the one front door of a run: every [hidap] command that
    reads a design, and the serve worker, get their netlist, its die
    and its diagnostics from it. {!place} is the one checkpointed
    place-and-measure behind [hidap place], [hidap check --audit] and
    the serve worker. {!eval} is the one instrumented two-flow suite
    run behind [hidap eval], [hidap bench] and the paper bench.
    Printing, exit codes and signal handling stay with the callers. *)

(** {1 Load} *)

type source =
  | Circuit of string  (** a suite circuit, ["c1"] .. ["c8"] *)
  | File of string  (** an HNL file *)
  | Text of { name : string; hnl : string }  (** HNL source text *)

(** Why a run cannot start. *)
type stop =
  | Unknown_circuit of string
  | Parse_error of Hnl.Parser.error
  | Invalid_design of Guard.Diag.t list  (** {!Guard.Validate.design}'s, with an error *)
  | Elaboration of string  (** the elaboration backstop's message *)
  | Invalid_netlist of Guard.Diag.t list  (** every diagnostic, with an error *)

type input = {
  name : string;  (** {!name_of} the source *)
  design : Netlist.Design.t;  (** validated, repaired where it could be *)
  flat : Netlist.Flat.t;
  die : Geom.Rect.t;  (** {!Hidap.die_for} of [flat] *)
  diags : Guard.Diag.t list;  (** every diagnostic, in detection order *)
}

val name_of : source -> string
(** The circuit, the file's basename without its extension, or the
    text's [name]. *)

val load : strict:bool -> config:Hidap.Config.t -> source -> (input, stop) result
(** Generate or parse [source], run {!Guard.Validate.design}, elaborate,
    size the die for [config] and run {!Guard.Validate.flat} on it. *)

(** {1 Place} *)

type ckpt = {
  dir : string;  (** checkpoint directory (created if needed) *)
  resume : bool;  (** adopt the newest valid snapshot in [dir] *)
  on_save : unit -> unit;  (** runs after each snapshot is written *)
}

type placed = {
  result : Hidap.result;
  run : Evalflow.run option;
      (** [Some] iff [~measure:true]: the placement as {!Evalflow.judge}
          measured it, with the run's [degradations] *)
  degradations : Guard.Supervisor.entry list;
  ckpt_summary : Record.ckpt_info option;  (** [Some] iff checkpointed *)
}

val place :
  config:Hidap.Config.t ->
  ?ckpt:ckpt ->
  ?on_resume:(string -> unit) ->
  measure:bool ->
  input ->
  (placed, Guard.Diag.t) result
(** Place the input's netlist in its die under
    {!Guard.Supervisor.with_run}, armed with [config.faults] and
    [config.budgets]. Inside the supervised region, in this order: the
    checkpoint session starts (its fingerprint built from the input's
    name and netlist and [config]), [on_resume] gets the snapshot
    file a resumed session adopted, and {!Hidap.place} runs; with
    [~measure:true] it runs as the candidate of {!Evalflow.judge}, which
    scores the placement. So resume-time rollbacks, snapshot-write
    failures and cell-placement fallbacks all land in [degradations].

    [Error] is a checkpoint session that could not start (an unusable
    directory or a fingerprint mismatch). When the run is cancelled
    ({!Guard.Budget.Cancelled}), a final snapshot is written so a
    resume continues bit-identically, and the exception propagates. *)

(** {1 Evaluate} *)

type evaluated = {
  flat : Netlist.Flat.t;
  result : Evalflow.circuit_result;
  degradations : Guard.Supervisor.entry list;
      (** the whole run's ledger; each record carries its flow's part *)
  records : Record.t list;
      (** {!Record.of_run} of each flow's run, with its own flow's spans
          and its macro displacement against the other flows *)
}

val eval :
  config:Hidap.Config.t ->
  ?on_finish:(Obs.Trace.t -> unit) ->
  (unit -> string * Netlist.Flat.t) ->
  evaluated
(** [eval ~config load] runs every flow of one circuit inside
    {!Obs.Trace.instrumented} ([on_finish] is passed on): [load] names
    and elaborates the circuit inside the instrumented region, then
    {!Evalflow.run_all} runs under {!Guard.Supervisor.with_run}, armed
    with [config.faults] and [config.budgets]. The records carry the
    run's spans and metrics. *)
