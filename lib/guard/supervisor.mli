(** Stage supervisor: graceful degradation with an auditable ledger.

    {!with_run} brackets a whole flow invocation: it arms fault specs,
    configures stage budgets, and collects every degradation the stages
    record. Inside the bracket, stages wrap their fallible bodies in
    {!protect}: when the body dies of a {e recoverable} failure — an
    injected fault, an exceeded budget, or an unexpected runtime
    exception — the wrapper records a degradation and runs the stage's
    fallback instead of killing the process.

    Outside a [with_run] bracket, {!protect} re-raises everything, so
    library code exercised directly by tests still fails loudly.

    Degradations are deduplicated by (stage, reason, detail) with a
    count and reported sorted, so the ledger is deterministic no matter
    which worker domain recorded first. [Diag.Fail] is never treated as
    recoverable: a diagnosed input error must surface as a diagnostic,
    not as a silently degraded placement. *)

type entry = {
  stage : string;  (** flow stage that degraded, e.g. ["floorplan"] *)
  reason : string;  (** ["fault"] | ["budget"] | ["failure"] *)
  detail : string;  (** fallback applied / failure description *)
  count : int;  (** occurrences within the run *)
}

val active : unit -> bool

val with_run :
  ?budgets:(string * float) list ->
  ?faults:Fault.spec list ->
  (unit -> 'a) ->
  'a * entry list
(** Run [f] supervised and return its result with the sorted
    degradation ledger. Faults and budgets are disarmed on the way out,
    exceptional or not. Nested calls are transparent: the inner bracket
    reports through the outer one and returns an empty ledger. *)

val during : (unit -> 'a) -> 'a * entry list
(** [during f] is [f ()] with the part of the active run's ledger that
    was recorded while [f] ran, sorted; the run's own ledger keeps
    those entries too. [[]] outside {!with_run}. *)

val degraded : unit -> bool
(** Whether the active run has recorded at least one degradation so
    far. Always false outside {!with_run}. Flow code uses this to
    decide whether a repair pass is needed: clean runs must stay
    bit-identical, so repairs may only trigger after a degradation. *)

val record : stage:string -> reason:string -> detail:string -> unit
(** Count a degradation (no-op outside {!with_run}). Safe from worker
    domains. *)

val recoverable : exn -> bool
(** True for failures a stage may absorb into its fallback: injected
    faults, exceeded budgets, and generic runtime errors ([Failure],
    [Invalid_argument], [Not_found], [Division_by_zero],
    [Assert_failure], array/index errors). False for {!Diag.Fail},
    [Out_of_memory], [Stack_overflow], the whole-run terminations
    {!Budget.Deadline} and {!Budget.Cancelled} (they unwind the flow
    to a terminal job state rather than degrade a stage), and anything
    unknown. *)

val protect : stage:string -> fallback:(string -> 'a) -> (unit -> 'a) -> 'a
(** [protect ~stage ~fallback f] is [f ()], except that inside an
    active {!with_run} a recoverable exception is recorded as a
    degradation and answered with [fallback detail] (the recorded
    detail string, for logging). Non-recoverable exceptions, and any
    exception outside a supervised run, propagate unchanged. *)

val budget_degraded : entry list -> bool
(** Whether any entry was a budget overrun (drives the CLI's
    budget-exceeded exit code). *)

val entry_to_json : entry -> Obs.Jsonx.t

val pp_entry : Format.formatter -> entry -> unit
