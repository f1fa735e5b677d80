(** Wall-clock sampling profiler over published span stacks.

    {!start} turns on {!Span} stack publication and spawns a dedicated
    sampler domain that periodically snapshots every publishing
    domain's span stack, counting observations per collapsed stack
    ["root;child;leaf"] (the flamegraph input format; an allocated but
    idle domain samples as ["(idle)"]). {!stop} joins the sampler,
    takes one final synchronous sample (so even very short runs
    produce output) and returns the accumulated samples.

    The profiler is read-only: it never blocks the sampled domains and
    never touches any RNG, so enabling it cannot change a placement
    (DESIGN.md §9). Only spans are sampled — run with span recording
    active (e.g. [--trace] or [--profile-out], which implies it) or
    every sample lands in ["(idle)"]. *)

val running : unit -> bool

val start : ?interval_ms:float -> unit -> unit
(** Start sampling every [interval_ms] (default 5 ms, clamped to
    ≥0.5 ms). No-op when already running. Call from the main domain. *)

val stop : unit -> (string * int) list
(** Stop and return [(collapsed_stack, count)] sorted by stack.
    Returns [[]] when no sampler is running. *)

val sample_now : unit -> unit
(** Take one synchronous sample into the running sampler (no-op when
    stopped) — deterministic hook for tests. *)

val collapse : string list -> string
(** Collapse an innermost-first frame list to ["root;...;leaf"]
    (["(idle)"] for the empty stack). *)

val to_collapsed_lines : (string * int) list -> string list
(** One ["stack count"] line per sample bucket. *)
