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

(* Sample random moves to estimate the mean uphill cost delta, then pick
   T0 so that exp(-mean_uphill / T0) = target acceptance. *)
let calibrate ~rng ~cost ~neighbor ~target state c0 =
  let samples = calibration_samples in
  let uphill = ref 0.0 and n_up = ref 0 in
  let s = ref state and c = ref c0 in
  for _ = 1 to samples do
    let s' = neighbor rng !s in
    let c' = cost s' in
    if c' > !c then begin
      uphill := !uphill +. (c' -. !c);
      incr n_up
    end;
    s := s';
    c := c'
  done;
  if !n_up = 0 then max 1e-9 (abs_float c0 *. 0.1)
  else
    let mean_up = !uphill /. float_of_int !n_up in
    let t = -.mean_up /. log target in
    max 1e-9 t

let minimize ~rng ~init ~cost ~neighbor ?(params = default_params) ?observer () =
  (* Calibration solves exp(-mean_up / t0) = target for t0, so the
     target must lie strictly inside (0, 1): log 1.0 = 0 divides by
     zero (the 1e-9 floor would silently quench the search), log of a
     non-positive target is NaN, and a target above 1 gives a negative
     temperature. Reject the parameter up front with a structured
     diagnostic instead of annealing with a nonsense schedule. The
     check is written to also catch NaN. *)
  (match params.initial_temp with
  | Some _ -> ()
  | None ->
    let a = params.initial_acceptance in
    if not (a > 0.0 && a < 1.0) then
      Guard.Diag.fail ~code:"bad-sa-acceptance" ~stage:"anneal"
        (Printf.sprintf
           "initial_acceptance %g is outside (0, 1): temperature calibration \
            needs log(target) finite and negative"
           a));
  let c0 = cost init in
  let t0, calibration_moves =
    match params.initial_temp with
    | Some t -> (t, 0)
    | None ->
      ( calibrate ~rng:(Util.Rng.split rng) ~cost ~neighbor
          ~target:params.initial_acceptance init c0,
        calibration_samples )
  in
  let cur = ref init and cur_cost = ref c0 in
  let best = ref init and best_cost = ref c0 in
  let temp = ref t0 in
  let moves = ref 0 and accepted = ref 0 and plateaus = ref 0 in
  let stop_temp = params.min_temp *. t0 in
  while !temp > stop_temp && !moves < params.max_moves do
    let plateau_accepts = ref 0 in
    let plateau_start = !moves in
    for _ = 1 to params.moves_per_plateau do
      if !moves < params.max_moves then begin
        incr moves;
        let cand = neighbor rng !cur in
        let cand_cost = cost cand in
        let delta = cand_cost -. !cur_cost in
        let accept =
          delta <= 0.0
          || Util.Rng.float rng 1.0 < exp (-.delta /. !temp)
        in
        if accept then begin
          cur := cand;
          cur_cost := cand_cost;
          incr accepted;
          incr plateau_accepts;
          if cand_cost < !best_cost then begin
            best := cand;
            best_cost := cand_cost
          end
        end
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
