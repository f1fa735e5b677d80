(** The run paths every entry point shares (DESIGN.md §8).

    {!place} is the one checkpointed place-and-measure behind
    [hidap place] and the serve worker. {!eval} is the one instrumented
    three-flow suite run behind [hidap eval], [hidap bench] and the
    paper bench. Printing, exit codes and signal handling stay with the
    callers. *)

(** {1 Place} *)

type ckpt = {
  dir : string;  (** checkpoint directory (created if needed) *)
  every : int;  (** completed floorplan instances between snapshots *)
  resume : bool;  (** adopt the newest valid snapshot in [dir] *)
  on_save : unit -> unit;  (** runs after each snapshot is written *)
}

type placed = {
  result : Hidap.result;
  measured : Evalflow.metrics option;  (** [Some] iff [~measure:true] *)
  degradations : Guard.Supervisor.entry list;
  ckpt_summary : Record.ckpt_info option;  (** [Some] iff checkpointed *)
}

val place :
  circuit:string ->
  config:Hidap.Config.t ->
  die:Geom.Rect.t ->
  ?ckpt:ckpt ->
  ?on_resume:(string -> unit) ->
  measure:bool ->
  Netlist.Flat.t ->
  (placed, Guard.Diag.t) result
(** Place [flat] under {!Guard.Supervisor.with_run}, armed with
    [config.faults] and [config.budgets]. Inside the supervised region,
    in this order: the checkpoint session starts (its fingerprint built
    from [circuit], [config] and [flat]), [on_resume] gets the snapshot
    file a resumed session adopted, {!Hidap.place} runs, and with
    [~measure:true] {!Evalflow.measure} scores the placement. So
    resume-time rollbacks, snapshot-write failures and cell-placement
    fallbacks all land in [degradations].

    [Error] is a checkpoint session that could not start (an unusable
    directory or a fingerprint mismatch). When the run is cancelled
    ({!Guard.Budget.Cancelled}), a final snapshot is written so a
    resume continues bit-identically, and the exception propagates. *)

(** {1 Evaluate} *)

type evaluated = {
  flat : Netlist.Flat.t;
  result : Evalflow.circuit_result;
  degradations : Guard.Supervisor.entry list;
  records : Record.t list;  (** {!Record.of_eval} of the run *)
}

val eval :
  config:Hidap.Config.t ->
  ?on_finish:(Obs.Trace.t -> unit) ->
  (unit -> string * Netlist.Flat.t) ->
  evaluated
(** [eval ~config load] runs the three flows of one circuit inside
    {!Obs.Trace.instrumented} ([on_finish] is passed on): [load] names
    and elaborates the circuit inside the instrumented region, then
    {!Evalflow.run_all} runs under {!Guard.Supervisor.with_run}, armed
    with [config.faults] and [config.budgets]. The records carry the
    run's spans and metrics. *)
