(** Layout generation for one floorplan instance (paper §IV-E).

    The blocks are arranged by a slicing tree. On up to 5 blocks every
    normalized Polish expression is scored and the cheapest wins; on
    more, the tree is explored with simulated annealing (operand swap /
    operator-chain inversion / operand-operator swap). The cost is
    [(1 + penalty) * sum over pairs of distance * affinity], where the
    pairs range over (block, block) and (block, fixed endpoint); fixed
    endpoints (ports, external macros) contribute with their fixed
    positions. The penalty grades target-area, minimum-area and
    macro-area violations of the top-down area-budgeted layout.

    {1 Cost terms}

    Every evaluated cost also carries a named decomposition (DESIGN.md
    §13): [wirelength] (the affinity-weighted distance sum, or the 1.0
    legality bias when no pairs exist), one penalty product per
    violation grade ([at_penalty]/[am_penalty]/[macro_penalty]) and a
    [residual] closing the float-rounding gap, such that
    {!breakdown_total} reproduces the annealer's scalar bit for bit.
    The decomposition is computed outside the SA move loop from the
    already-evaluated scalar, so it cannot perturb placements. *)

type breakdown = {
  bd_wirelength : float;
      (** the [base] factor: wirelength sum, or 1.0 with no pairs *)
  bd_at_penalty : float;  (** [base * at_weight * normalized at_shift] *)
  bd_am_penalty : float;  (** [base * am_weight * normalized am_deficit] *)
  bd_macro_penalty : float;
      (** [base * macro_weight * normalized macro_deficit] *)
  bd_residual : float;
      (** [cost - (((wirelength + at) + am) + macro)], exact by
          Sterbenz's lemma since the partial sum is within 2x of the
          cost *)
}

val term_names : string list
(** The five term names, in the canonical (summation) order. *)

val breakdown_terms : breakdown -> (string * float) list
(** Name/value pairs in {!term_names} order. *)

val breakdown_total : breakdown -> float
(** Left-to-right sum of the five terms — bit-identical to the [cost]
    the breakdown was computed from. *)

type pair_contrib = {
  pc_i : int;  (** block index *)
  pc_j : int;  (** block index, or fixed endpoint for [j >= n_blocks] *)
  pc_weight : float;  (** affinity weight *)
  pc_wl : float;  (** [weight * manhattan distance] — this pair's share *)
}

type attribution = {
  attr_pairs : pair_contrib array;
      (** one entry per affinity pair, in evaluation order; folding
          [pc_wl] left to right reproduces [wirelength_term] bit for
          bit *)
  attr_leaf_viol : Slicing.Layout.violations array;
      (** per block index: that block's share of [viol] (see
          {!Slicing.Layout.evaluate_attributed}; sums reconcile up to a
          rounding residual) *)
}

type result = {
  rects : Geom.Rect.t array;  (** per block index *)
  cost : float;
  wirelength_term : float;  (** cost without the penalty factor *)
  viol : Slicing.Layout.violations;
  breakdown : breakdown;  (** named terms summing bit-exactly to [cost] *)
  attribution : attribution;  (** per-pair and per-block shares *)
  sa_moves : int;
      (** cost evaluations across every annealing start, including the
          initial-temperature calibration samples (0 when no annealer
          ran — exact search, single block or degraded) *)
  final_temperature : float;
      (** final plateau temperature of the winning annealing start
          (0.0 when no annealer ran) *)
}

val breakdown_of :
  cost:float ->
  wirelength:float ->
  viol:Slicing.Layout.violations ->
  config:Config.t ->
  budget:Geom.Rect.t ->
  n_pairs:int ->
  breakdown
(** Decompose an evaluated cost into named terms. [viol] is the
    (unnormalized) violation total the cost was computed from, including
    the single-block budget adjustment. *)

val eval_expr :
  config:Config.t ->
  blocks:Block.t array ->
  affinity:float array array ->
  fixed_pos:Geom.Point.t array ->
  budget:Geom.Rect.t ->
  Slicing.Polish.t ->
  result
(** Evaluate one slicing expression without any search: the same cost,
    breakdown and attribution a {!run} returning this expression would
    produce, with [sa_moves = 0] and [final_temperature = 0.0]. Exposed
    for tests and tools that need to re-attribute a known layout. *)

val walker : n_blocks:int -> Slicing.Polish.t -> Slicing.Polish.walker
(** A walker over the expression that keeps its instance cost table key
    up to date on [n_blocks] blocks (no key when the table is off at
    that size or the expression cannot be packed). The annealer makes
    one per start; this is the only place a key is packed from
    scratch. *)

val annealing_costs :
  starts:int ->
  config:Config.t ->
  blocks:Block.t array ->
  affinity:float array array ->
  fixed_pos:Geom.Point.t array ->
  budget:Geom.Rect.t ->
  (Slicing.Polish.t -> float) array
(** The costs [starts] annealing starts of one {!run} instance
    minimize: slot [i] is start [i]'s cost function, on its own
    incremental state, and each call returns the cost of one
    expression — bitwise the [cost] {!eval_expr} reports for it. On up
    to 8 blocks all states share the instance's cost table: a call on
    an expression this start, or another one, has already scored may
    return the stored cost without re-walking the slicing tree
    (DESIGN.md §14). Each call packs the expression's table key from
    scratch. Exposed for tests. *)

val walker_costs :
  ?home:(int -> int) ->
  starts:int ->
  config:Config.t ->
  blocks:Block.t array ->
  affinity:float array array ->
  fixed_pos:Geom.Point.t array ->
  budget:Geom.Rect.t ->
  unit ->
  (Slicing.Polish.walker -> float) array
(** The same costs as the annealer calls them: on the walker's current
    expression, looked up by the key the walker keeps. The walker must
    come from {!walker} on the same number of blocks. [home] replaces
    the instance table's home-slot function (the default is
    {!table_slot_of}'s) and must return a slot below 2^15. Exposed for
    tests. *)

val table_slot_of : n_blocks:int -> Slicing.Polish.t -> int option
(** The home slot of [expr] in the instance cost table on [n_blocks]
    blocks, or [None] when the table is off at that size (more than 8
    blocks) or [expr] cannot be packed (wrong length, operand out of
    range). Exposed for tests. *)

val run :
  ?observer:(Anneal.Sa.plateau -> breakdown -> unit) ->
  rng:Util.Rng.t ->
  config:Config.t ->
  blocks:Block.t array ->
  affinity:float array array ->
  fixed_pos:Geom.Point.t array ->
  budget:Geom.Rect.t ->
  unit ->
  result
(** [affinity] is indexed over blocks then fixed endpoints
    ([Array.length blocks + Array.length fixed_pos] square).
    A single block is placed directly with no search, but still at the
    penalized multi-block cost.

    On 2 to 5 blocks the search is exact: every normalized expression
    ({!Slicing.Polish.iter_normalized}) is scored, the minimum cost
    wins and ties go to the first expression in code order. The
    expressions are split by first operand across up to
    [config.jobs] domains and the parts reduced in order, so the result
    is bit-identical for every job count. The instance reports
    [sa_moves = 0], adds the expressions it scored to the [cost.evals]
    counter and to its span's [exact_exprs] attribute, and never calls
    [observer]. It still draws from [rng] what the annealing
    starts would (the [sa_starts - 2] random initial expressions and one
    split per start), so later instances see the same stream.

    On more blocks, [config.sa_starts] annealing starts (the
    affinity-greedy chain, the reversed chain, then random shuffles) run
    across up to [config.jobs] domains, each with an RNG stream
    pre-split in start order; the best result is chosen by minimum cost
    with ties to the lowest start index, so the outcome is bit-identical
    for every job count.

    Either search polls the [floorplan] budget on every cost call; when
    it dies (injected [floorplan.sa] fault, exceeded budget) the
    instance keeps the affinity-greedy chain layout.

    [observer] receives, after each plateau of every start, the
    plateau's convergence snapshot and the named breakdown of the
    cheapest evaluation that start's cost closure has seen so far
    (calibration samples included, so it can lead the annealer's
    accepted best). It runs on worker domains (the telemetry shorthands
    it may call are domain-safe) and outside the RNG path: enabling it
    never changes a placement. *)
