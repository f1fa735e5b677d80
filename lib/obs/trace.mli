(** Trace lifecycle and exporters.

    [start]/[finish] wrap {!Span.start_recording} and
    {!Span.finish_recording}. A finished trace exports either as a
    Chrome-trace JSON array of complete events (openable in
    chrome://tracing or https://ui.perfetto.dev) or as an indented
    stage tree for terminals. *)

type t = Span.t list

val start : unit -> unit

val finish : unit -> t

val instrumented : ?on_finish:(t -> unit) -> (unit -> 'a) -> 'a * t
(** [instrumented f] is the one instrumented run: it resets and enables
    {!Perf.global}, starts span recording, runs [f], then finishes the
    trace and disables the registry's gate. [on_finish] gets the spans
    on every exit path, returned or raised, while the global registry
    still holds the run's values; an exception from [f] is re-raised
    after it. *)

val to_chrome_json : t -> Jsonx.t
(** JSON array of ["ph": "X"] complete events, one per span, with
    [name]/[ph]/[ts]/[dur]/[pid]/[tid] fields and attributes under
    [args]. Events appear in start order (parents before children). *)

val write_chrome_file : string -> t -> unit

val stage_totals : t -> (string * float * int) list
(** Wall-clock roll-up by span name over the whole tree:
    [(name, total_us, calls)], in first-appearance order. Nested spans
    of the same name each contribute, so a recursive stage's total can
    exceed its outermost duration. *)

val collapsed : t -> (string * int) list
(** The collapsed-stack profile of the tree (flamegraph.pl / speedscope
    / inferno input, one ["root;child;leaf N"] line per entry): the self
    time of every root-first [';']-joined name path, in integer µs,
    summed over the spans on that path, sorted by stack. A span's self
    time is its duration minus the union of its children's intervals
    (the spans of parallel tasks, grafted under one parent, overlap),
    never negative.
    Paths whose self time rounds to 0 µs are left out. *)

val summary : t -> string
(** Human-readable tree: per-span duration, share of the parent's
    duration, and attributes. *)
