(** Bounded queue between the daemon's accept loop and its workers.

    Ordering: submission sequence ascending (FIFO by [seq], so a
    recovered or retried job keeps its original place). Entries may
    carry a future ready time
    (retry backoff); {!try_pop} never hands one out early. The bound is
    the admission-control limit — {!push} refuses past it, returning
    the depth for the structured backpressure rejection. *)

type 'a t

type push_result =
  | Enqueued of int  (** depth after the push *)
  | Full of int  (** depth that caused the refusal *)

val create : limit:int -> 'a t
(** [limit] is clamped to at least 1. *)

val push : 'a t -> seq:int -> ?ready_s:float -> 'a -> push_result
(** Admission-controlled push; [Full] when the queue is at its limit
    or closed. [ready_s] is an absolute [Unix.gettimeofday] time
    before which the entry is not eligible (default: immediately). *)

val force_push : 'a t -> seq:int -> ?ready_s:float -> 'a -> unit
(** Push past the admission bound — for retries and crash recovery,
    which re-enter work that was already admitted once. Silently
    dropped on a closed queue (the entry is persisted on disk and the
    next daemon will recover it). *)

val try_pop : 'a t -> 'a option
(** The best eligible entry right now, or [None] when the queue is
    closed, empty, or holds only entries still backing off. Never
    blocks: the daemon's select loop polls this once per free worker
    slot per tick. A closed queue returns [None] even when entries
    remain: close means drain, and undone entries stay persisted for
    the next daemon. *)

val close : 'a t -> unit
(** Stop the queue: subsequent pushes are refused/dropped and
    {!try_pop} returns [None]. *)

val depth : 'a t -> int

val limit : 'a t -> int
