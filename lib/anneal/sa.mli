(** Generic simulated annealing (minimization).

    The engine is purely functional in the solution type: [neighbor]
    returns a fresh candidate and the engine keeps the incumbent and the
    best-so-far. Temperature follows a geometric schedule; the initial
    temperature can be calibrated automatically from the uphill move
    distribution (Kirkpatrick-style) so that an initial acceptance
    probability is met. *)

type params = {
  initial_temp : float option;
      (** [None] calibrates from sampled uphill deltas. *)
  initial_acceptance : float;
      (** target acceptance probability for calibration (default 0.85) *)
  cooling : float;  (** geometric factor per plateau, in (0, 1) *)
  moves_per_plateau : int;  (** proposals evaluated at each temperature *)
  min_temp : float;  (** stop when temperature drops below *)
  max_moves : int;  (** hard cap on total proposals *)
}

val default_params : params
(** cooling 0.92, 64 moves per plateau, min_temp 1e-4 relative,
    100_000 max moves, calibrated initial temperature. *)

val quick_params : params
(** A small budget for inner loops (shape-curve generation). *)

type 'a result = {
  best : 'a;
  best_cost : float;
  moves : int;  (** schedule proposals evaluated (excludes calibration) *)
  accepted : int;
  plateaus : int;
  calibration_moves : int;
      (** cost evaluations spent calibrating the initial temperature
          ({!calibration_samples} when calibrated, 0 when
          [initial_temp] was given) — so
          [moves + calibration_moves + 1] is the exact number of
          cost-function calls, the [+ 1] being the initial state *)
  final_temperature : float;
      (** temperature after the last completed plateau's cooling step *)
}

val calibration_samples : int
(** Number of neighbor samples drawn by the Kirkpatrick-style initial
    temperature calibration (32). *)

type plateau = {
  index : int;  (** 0-based plateau number *)
  temperature : float;  (** temperature the plateau ran at *)
  current_cost : float;  (** incumbent cost at plateau end *)
  plateau_best_cost : float;  (** best-so-far cost at plateau end *)
  plateau_moves : int;  (** proposals evaluated in this plateau *)
  plateau_accepted : int;  (** proposals accepted in this plateau *)
  total_moves : int;  (** proposals evaluated so far overall *)
}
(** Convergence snapshot handed to the [?observer] after each plateau. *)

val acceptance_rate : plateau -> float
(** [plateau_accepted / plateau_moves] (0 for an empty plateau). *)

val minimize :
  rng:Util.Rng.t ->
  init:'a ->
  cost:('a -> float) ->
  neighbor:(Util.Rng.t -> 'a -> 'a) ->
  ?params:params ->
  ?observer:(plateau -> unit) ->
  unit ->
  'a result
(** Runs the schedule and returns the best solution seen. Deterministic
    given the rng state; [observer] (called once per plateau, after its
    moves) is outside the RNG path, so attaching one cannot change the
    result.

    The move loop does no telemetry work. When {!Obs.Perf} is enabled
    the run adds its totals to the ambient [sa.moves]/[sa.accepts]/
    [sa.rejects]/[sa.plateaus]/[cost.evals] counters once, at the end,
    from the loop's own local tallies. Counters never touch the RNG, so
    enabling them cannot change the result. *)
