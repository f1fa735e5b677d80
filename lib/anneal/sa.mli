(** Generic simulated annealing (minimization).

    One loop, {!anneal}, moves a mutable state in place: it proposes a
    move with [perturb], undoes it with [undo] when the move is
    rejected, and copies the state with [copy] only on a new best (and
    once for calibration, which walks its own copy). {!minimize} is the
    same loop over an immutable state kept in a cell. Temperature
    follows a geometric schedule; the initial temperature can be
    calibrated automatically from the uphill move distribution
    (Kirkpatrick-style) so that an initial acceptance probability is
    met. *)

type params = {
  initial_temp : float option;
      (** [None] calibrates from sampled uphill deltas. *)
  initial_acceptance : float;
      (** target acceptance probability for calibration (default 0.85) *)
  cooling : float;  (** geometric factor per plateau, in (0, 1) *)
  moves_per_plateau : int;  (** proposals evaluated at each temperature, >= 1 *)
  min_temp : float;
      (** stop once the temperature falls to [min_temp] times the
          initial one, in (0, 1) *)
}

val default_params : params
(** cooling 0.92, 64 moves per plateau, min_temp 1e-4 relative,
    calibrated initial temperature: 111 plateaus, 7,104 moves. *)

val quick_params : params
(** A small budget for inner loops (shape-curve generation): cooling
    0.85, 24 moves per plateau, 57 plateaus, 1,368 moves. *)

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

val anneal :
  rng:Util.Rng.t ->
  init:'a ->
  cost:('a -> float) ->
  perturb:(Util.Rng.t -> 'a -> unit) ->
  undo:('a -> unit) ->
  copy:('a -> 'a) ->
  ?params:params ->
  ?observer:(plateau -> unit) ->
  unit ->
  'a result
(** Runs the schedule on [init], which the run owns and moves in place,
    and returns a copy of the best state seen. [perturb rng s] applies
    one random move to [s]; [undo s] reverts the last move applied to
    [s]; [copy s] is an independent state equal to [s]. The cost calls
    are those of the functional loop: [init], then each calibration
    sample (on a copy of [init]), then each proposal.

    The parameters are checked first. A schedule that cannot run fails
    with a [bad-sa-params] diagnostic ([moves_per_plateau < 1], [cooling]
    or [min_temp] outside (0, 1), or an [initial_temp] that is not
    finite and positive), and a calibration target outside (0, 1) with
    [bad-sa-acceptance] (only when calibration runs). *)

val minimize :
  rng:Util.Rng.t ->
  init:'a ->
  cost:('a -> float) ->
  neighbor:(Util.Rng.t -> 'a -> 'a) ->
  ?params:params ->
  ?observer:(plateau -> unit) ->
  unit ->
  'a result
(** {!anneal} over an immutable state: [neighbor] returns a fresh
    candidate, and undo restores the one it replaced. Deterministic
    given the rng state; [observer] (called once per plateau, after its
    moves) is outside the RNG path, so attaching one cannot change the
    result.

    The move loop does no telemetry work. When {!Obs.Perf} is enabled
    the run adds its totals to the ambient [sa.moves]/[sa.accepts]/
    [sa.rejects]/[sa.plateaus]/[cost.evals] counters once, at the end,
    from the loop's own local tallies. Counters never touch the RNG, so
    enabling them cannot change the result. *)
