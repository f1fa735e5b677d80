type params = {
  initial_temp : float option;
  initial_acceptance : float;
  cooling : float;
  moves_per_plateau : int;
  min_temp : float;
  max_moves : int;
}

let default_params =
  { initial_temp = None;
    initial_acceptance = 0.85;
    cooling = 0.92;
    moves_per_plateau = 64;
    min_temp = 1e-4;
    max_moves = 100_000 }

let quick_params =
  { default_params with moves_per_plateau = 24; max_moves = 6_000; cooling = 0.85 }

type 'a result = {
  best : 'a;
  best_cost : float;
  moves : int;
  accepted : int;
  plateaus : int;
  calibration_moves : int;
  final_temperature : float;
}

type plateau = {
  index : int;
  temperature : float;
  current_cost : float;
  plateau_best_cost : float;
  plateau_moves : int;
  plateau_accepted : int;
  total_moves : int;
}

let acceptance_rate p =
  if p.plateau_moves = 0 then 0.0
  else float_of_int p.plateau_accepted /. float_of_int p.plateau_moves

let calibration_samples = 32

(* Walk [state] (a copy the run owns) through [calibration_samples]
   random moves, all kept, to estimate the mean uphill cost delta, then
   pick T0 so that exp(-mean_uphill / T0) = target acceptance. *)
let calibrate ~rng ~cost ~perturb ~target state c0 =
  let uphill = ref 0.0 and n_up = ref 0 in
  let c = ref c0 in
  for _ = 1 to calibration_samples do
    perturb rng state;
    let c' = cost state in
    if c' > !c then begin
      uphill := !uphill +. (c' -. !c);
      incr n_up
    end;
    c := c'
  done;
  if !n_up = 0 then max 1e-9 (abs_float c0 *. 0.1)
  else
    let mean_up = !uphill /. float_of_int !n_up in
    let t = -.mean_up /. log target in
    max 1e-9 t

(* Reject a schedule that cannot run, with a structured diagnostic
   instead of annealing with it. Calibration solves
   exp(-mean_up / t0) = target for t0, so the target must lie strictly
   inside (0, 1): log 1.0 = 0 divides by zero (the 1e-9 floor would
   silently quench the search), log of a non-positive target is NaN,
   and a target above 1 gives a negative temperature. The loop ends
   when the temperature falls below [min_temp * t0] or the moves reach
   [max_moves]; with no move per plateau and a cooling factor of 1 it
   would end never. Every check is written to also catch NaN. *)
let validate params =
  let bad fmt =
    Printf.ksprintf (fun msg -> Guard.Diag.fail ~code:"bad-sa-params" ~stage:"anneal" msg) fmt
  in
  if not (params.moves_per_plateau >= 1) then
    bad "moves_per_plateau %d is below 1: a plateau must propose a move"
      params.moves_per_plateau;
  if not (params.cooling > 0.0 && params.cooling < 1.0) then
    bad "cooling %g is outside (0, 1): the temperature must fall geometrically"
      params.cooling;
  if params.max_moves < 0 then bad "max_moves %d is negative" params.max_moves;
  (match params.initial_temp with
  | Some t ->
    if not (t > 0.0 && t < Float.infinity) then
      bad "initial_temp %g is not a finite positive temperature" t
  | None ->
    let a = params.initial_acceptance in
    if not (a > 0.0 && a < 1.0) then
      Guard.Diag.fail ~code:"bad-sa-acceptance" ~stage:"anneal"
        (Printf.sprintf
           "initial_acceptance %g is outside (0, 1): temperature calibration \
            needs log(target) finite and negative"
           a))

let anneal ~rng ~init ~cost ~perturb ~undo ~copy ?(params = default_params) ?observer () =
  validate params;
  let c0 = cost init in
  let t0, calibration_moves =
    match params.initial_temp with
    | Some t -> (t, 0)
    | None ->
      ( calibrate ~rng:(Util.Rng.split rng) ~cost ~perturb
          ~target:params.initial_acceptance (copy init) c0,
        calibration_samples )
  in
  (* [cur] is [init], moved in place; a rejected move is undone, and
     the state is copied only on a new best. *)
  let cur = init and cur_cost = ref c0 in
  let best = ref (copy init) and best_cost = ref c0 in
  let temp = ref t0 in
  let moves = ref 0 and accepted = ref 0 and plateaus = ref 0 in
  let stop_temp = params.min_temp *. t0 in
  while !temp > stop_temp && !moves < params.max_moves do
    let plateau_accepts = ref 0 in
    let plateau_start = !moves in
    for _ = 1 to params.moves_per_plateau do
      if !moves < params.max_moves then begin
        incr moves;
        perturb rng cur;
        let cand_cost = cost cur in
        let delta = cand_cost -. !cur_cost in
        let accept =
          delta <= 0.0
          || Util.Rng.float rng 1.0 < exp (-.delta /. !temp)
        in
        if accept then begin
          cur_cost := cand_cost;
          incr accepted;
          incr plateau_accepts;
          if cand_cost < !best_cost then begin
            best := copy cur;
            best_cost := cand_cost
          end
        end
        else undo cur
      end
    done;
    incr plateaus;
    (* The observer runs outside the RNG path: enabling telemetry can
       never change the annealing trajectory. *)
    (match observer with
    | None -> ()
    | Some f ->
      f
        { index = !plateaus - 1;
          temperature = !temp;
          current_cost = !cur_cost;
          plateau_best_cost = !best_cost;
          plateau_moves = !moves - plateau_start;
          plateau_accepted = !plateau_accepts;
          total_moves = !moves });
    temp := !temp *. params.cooling
  done;
  (* Perf counters are flushed once per run from the loop's own local
     tallies, so the annealing inner loop carries no telemetry work at
     all — not even a branch — and the totals are identical to per-move
     bumps (test_obs "telemetry does no per-move work" bounds what
     enabling them allocates; DESIGN.md §12). *)
  if Obs.Perf.enabled () then begin
    let h = Obs.Perf.ambient () in
    Obs.Perf.bump h Obs.Perf.sa_moves !moves;
    Obs.Perf.bump h Obs.Perf.sa_accepts !accepted;
    Obs.Perf.bump h Obs.Perf.sa_rejects (!moves - !accepted);
    Obs.Perf.bump h Obs.Perf.sa_plateaus !plateaus;
    (* moves + calibration samples + the initial-state evaluation *)
    Obs.Perf.bump h Obs.Perf.cost_evals (!moves + calibration_moves + 1)
  end;
  { best = !best; best_cost = !best_cost; moves = !moves; accepted = !accepted;
    plateaus = !plateaus; calibration_moves; final_temperature = !temp }

(* The functional state in a cell: a move keeps the state it replaced,
   and undo restores it. *)
type 'a cell = { mutable now : 'a; mutable before : 'a }

let minimize ~rng ~init ~cost ~neighbor ?params ?observer () =
  let r =
    anneal ~rng ~init:{ now = init; before = init }
      ~cost:(fun s -> cost s.now)
      ~perturb:(fun rng s ->
        s.before <- s.now;
        s.now <- neighbor rng s.now)
      ~undo:(fun s -> s.now <- s.before)
      ~copy:(fun s -> { now = s.now; before = s.before })
      ?params ?observer ()
  in
  { r with best = r.best.now }
