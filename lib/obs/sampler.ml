(* Wall-clock sampling profiler.

   A dedicated sampler domain wakes up every [interval] and reads the
   span stacks the worker domains publish through [Span] (one atomic
   load per slot), bucketing each observation under its collapsed
   stack "root;child;leaf". The sampled code never blocks for the
   sampler and the sampler never touches any RNG, so profiling cannot
   change a placement. *)

type state = {
  tbl : (string, int ref) Hashtbl.t;
  lock : Mutex.t;
  stop : bool Atomic.t;
  mutable sampler : unit Domain.t option;
}

let current : state option ref = ref None

let running () = Option.is_some !current

let collapse names =
  match names with [] -> "(idle)" | _ -> String.concat ";" (List.rev names)

let sample_locked st =
  let stacks = Span.published_stacks () in
  Array.iter
    (function
      | None -> ()
      | Some names ->
        let key = collapse names in
        (match Hashtbl.find_opt st.tbl key with
        | Some r -> incr r
        | None -> Hashtbl.replace st.tbl key (ref 1)))
    stacks

let sample_now () =
  match !current with
  | None -> ()
  | Some st ->
    Mutex.lock st.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) (fun () -> sample_locked st)

(* Sleep in short chunks so [stop] takes effect promptly even with a
   long sampling interval. *)
let interruptible_sleep stop s =
  let chunk = 0.02 in
  let rec go left =
    if left > 0.0 && not (Atomic.get stop) then begin
      Unix.sleepf (min chunk left);
      go (left -. chunk)
    end
  in
  go s

let start ?(interval_ms = 5.0) () =
  if not (running ()) then begin
    let st =
      { tbl = Hashtbl.create 64;
        lock = Mutex.create ();
        stop = Atomic.make false;
        sampler = None }
    in
    current := Some st;
    Span.set_publishing true;
    Span.ensure_slot ();
    let interval_s = Float.max 0.0005 (interval_ms /. 1e3) in
    let d =
      Domain.spawn (fun () ->
          while not (Atomic.get st.stop) do
            Mutex.lock st.lock;
            sample_locked st;
            Mutex.unlock st.lock;
            interruptible_sleep st.stop interval_s
          done)
    in
    st.sampler <- Some d
  end

let stop () =
  match !current with
  | None -> []
  | Some st ->
    Atomic.set st.stop true;
    Option.iter Domain.join st.sampler;
    (* One final synchronous sample so even a run shorter than the
       interval produces at least one observation. *)
    sample_locked st;
    Span.set_publishing false;
    Span.release_slot ();
    current := None;
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) st.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_collapsed_lines samples =
  List.map (fun (stack, n) -> Printf.sprintf "%s %d" stack n) samples
