(** Per-stage wall-clock budgets.

    A budget bounds how long a flow stage may run before it degrades.
    Stages poll {!check} from their inner loops (the SA cost function,
    the flipping macro loop, the cell-placement sweeps); the first poll
    of a stage starts its clock, and a poll past the deadline raises
    {!Exceeded}, which the stage's supervisor wrapper converts into its
    fallback plus a recorded degradation.

    Polling is lock-free and, with no budgets configured (the default),
    a single atomic load — placements are bit-identical whether or not
    budgets are armed, as long as none expires. Deadlines are published
    once and shared across worker domains, so every annealing start of
    a stage observes the same deadline. *)

exception Exceeded of { stage : string; budget_s : float }

exception Deadline of { deadline_s : float }
(** A whole-run deadline expired. Unlike {!Exceeded} this is {e not}
    degradable: {!Supervisor.recoverable} answers false, so the
    exception propagates out of the flow and the caller (the serve
    worker) records the job as timed-out. *)

exception Cancelled of { stage : string }
(** The run was asked to stop cooperatively ({!request_cancel}); raised
    by the next {!check} poll of any stage. Non-degradable like
    {!Deadline}: it unwinds the flow so the caller can checkpoint and
    park. *)

val configure : (string * float) list -> unit
(** Install [(stage, seconds)] budgets, clearing previous deadlines.
    Stages without an entry are unlimited. Call on the main domain
    before the flow starts. *)

val clear : unit -> unit

val budgets : unit -> (string * float) list

val check : stage:string -> unit
(** Start [stage]'s clock on first call; raise {!Exceeded} when the
    stage has been running longer than its budget. No-op for stages
    without a budget. Every poll additionally honors the whole-run
    controls: it raises {!Cancelled} when a cancel was requested and
    {!Deadline} when the armed run deadline has passed (cancellation
    outranks the deadline). With neither armed the extra cost is two
    atomic loads. *)

(** {1 Whole-run controls}

    Shared by every stage of the running flow. [hidap serve] arms a
    deadline per job attempt and requests cancellation to park the
    in-flight job on drain; a checkpointed [hidap place] requests
    cancellation from its SIGINT/SIGTERM handler. Single global cells:
    one flow at a time (the serve engine serializes job execution). *)

val set_deadline : float -> unit
(** Arm a run deadline [seconds] from now. *)

val clear_deadline : unit -> unit

val deadline : unit -> float option
(** The armed deadline's original duration, if any. *)

val request_cancel : unit -> unit
(** Ask the running flow to stop at its next budget poll. *)

val clear_cancel : unit -> unit

val parse : string -> ((string * float) list, string) result
(** Parse a comma-separated [stage=SECONDS] list (the [--budget] CLI
    flag and the [HIDAP_BUDGET] environment variable). *)

val of_env : unit -> ((string * float) list, string) result
(** Budgets from [HIDAP_BUDGET]; [Ok []] when unset or empty. *)
