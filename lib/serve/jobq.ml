(* Bounded queue between the accept loop and the workers.

   A mutex around a small list: queue depths are bounded by admission
   control (the whole point), so linear scans beat a heap on clarity.
   Ordering is submission sequence ascending (FIFO by seq). An entry can carry a ready time in the
   future (retry backoff); [try_pop] never returns it early. *)

type 'a entry = { seq : int; ready_s : float; v : 'a }

type 'a t = {
  lock : Mutex.t;
  limit : int;
  mutable entries : 'a entry list;
  mutable closed : bool;
}

type push_result = Enqueued of int | Full of int

let create ~limit =
  { lock = Mutex.create (); limit = max 1 limit; entries = []; closed = false }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let depth t = locked t (fun () -> List.length t.entries)

let limit t = t.limit

let insert t ~seq ~ready_s v = t.entries <- { seq; ready_s; v } :: t.entries

let push t ~seq ?(ready_s = 0.0) v =
  locked t (fun () ->
      let d = List.length t.entries in
      if t.closed || d >= t.limit then Full d
      else begin
        insert t ~seq ~ready_s v;
        Enqueued (d + 1)
      end)

(* Retries and crash recovery re-enter the queue past the admission
   bound: the job was already admitted once, and dropping it would
   turn a transient fault into a lost job. *)
let force_push t ~seq ?(ready_s = 0.0) v =
  locked t (fun () -> if not t.closed then insert t ~seq ~ready_s v)

let close t = locked t (fun () -> t.closed <- true)

let best_ready ~now entries =
  List.fold_left
    (fun acc e ->
      if e.ready_s > now then acc
      else
        match acc with Some b when b.seq < e.seq -> acc | _ -> Some e)
    None entries

(* Non-blocking pop for the daemon's single-domain select loop, which
   must never sleep in the queue: it owns accept, relay and reaping
   too. Backing-off entries simply stay put until a later tick. Close
   means drain: entries left in a closed queue are not handed out, they
   stay persisted as pending for the next daemon. *)
let try_pop t =
  locked t (fun () ->
      if t.closed then None
      else
        let now = Unix.gettimeofday () in
        match best_ready ~now t.entries with
        | Some e ->
          t.entries <- List.filter (fun x -> x != e) t.entries;
          Some e.v
        | None -> None)
