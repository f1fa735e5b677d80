(** Deterministic fault injection.

    The flow declares named {e injection sites} at the points whose
    failure paths must stay exercised (see {!sites} for the registry).
    Arming a site makes {!hit} raise {!Injected} (or stall) when
    execution reaches it, so every supervisor fallback can be driven
    from tests and CI without contriving real failures.

    Specs come from the [HIDAP_FAULT] environment variable or
    [Config.faults]; the syntax is [site[:N][:stall=SECONDS]]:

    - [site] — raise {!Injected} at every hit of [site];
    - [site:3] — raise from the 3rd hit on (1-based, counted globally
      across domains);
    - [site:stall=0.2] — sleep 0.2 s at each hit instead of raising
      (drives real wall-clock budget overruns deterministically).

    Multiple specs are comma-separated. With the default [N = 1] the
    site fires at {e every} hit, so the observed failure is
    schedule-independent even when the site sits inside parallel worker
    tasks: all tasks raise, and {!Parexec.map} propagates the
    lowest-index one. An [N > 1] skip count is honored with a single
    atomic counter shared across domains; under parallelism the skipped
    hits are whichever arrive first, so use it only in sequential
    sections (or with jobs = 1). *)

type action =
  | Raise
  | Stall of float  (** seconds slept at each triggering hit *)

type spec = {
  site : string;
  nth : int;  (** fire on hit number >= [nth]; 1 fires always *)
  action : action;
}

exception Injected of { site : string; hit : int }
(** The exception raised at a triggering hit of an armed [Raise] site. *)

val sites : (string * string) list
(** The registered injection sites, [(name, what the fallback does)].
    Arming an unknown site is a usage error; {!hit} with an unregistered
    name is a programming error caught by the tests. *)

val known : string -> bool

val parse : string -> (spec list, string) result
(** Parse a comma-separated [HIDAP_FAULT] value. Unknown sites, bad
    counts and bad stall durations are reported, not ignored. *)

val of_env : unit -> (spec list, string) result
(** Specs from [HIDAP_FAULT]; [Ok []] when unset or empty. *)

val arm : spec list -> unit
(** Install the specs (resetting all hit counters). Call once per run,
    on the main domain, before the flow starts. *)

val disarm : unit -> unit
(** Remove all specs and counters. *)

val armed : unit -> spec list

val hit : string -> unit
(** Mark execution reaching [site]. No-op (one atomic load) when
    nothing is armed for the site; raises {!Injected} or stalls when a
    matching armed spec triggers. Safe to call from worker domains. *)
