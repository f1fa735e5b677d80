(* Tests for the simulated annealing engine. *)

module Sa = Anneal.Sa

let qtest ?(count = 30) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* 1-D quadratic with gaussian moves: SA must get near the minimum. *)
let quadratic_setup () =
  let cost x = (x -. 3.0) *. (x -. 3.0) in
  let neighbor rng x = x +. Util.Rng.gaussian rng ~mean:0.0 ~stddev:0.5 in
  (cost, neighbor)

let test_minimizes_quadratic () =
  let cost, neighbor = quadratic_setup () in
  let rng = Util.Rng.create 4 in
  let r = Sa.minimize ~rng ~init:20.0 ~cost ~neighbor () in
  Alcotest.(check bool) "near minimum" true (abs_float (r.Sa.best -. 3.0) < 0.5);
  Alcotest.(check bool) "cost improved" true (r.Sa.best_cost < cost 20.0)

let test_deterministic () =
  let cost, neighbor = quadratic_setup () in
  let run () = Sa.minimize ~rng:(Util.Rng.create 9) ~init:10.0 ~cost ~neighbor () in
  let a = run () and b = run () in
  Alcotest.(check (float 0.0)) "identical best" a.Sa.best b.Sa.best;
  Alcotest.(check int) "identical move count" a.Sa.moves b.Sa.moves

(* The schedule alone bounds the run: it stops once the temperature
   falls to [min_temp] times the start, after
   ceil(log min_temp / log cooling) full plateaus. *)
let test_schedule_length () =
  let cost, neighbor = quadratic_setup () in
  List.iter
    (fun (what, params, plateaus) ->
      let r = Sa.minimize ~rng:(Util.Rng.create 1) ~init:10.0 ~cost ~neighbor ~params () in
      Alcotest.(check int) (what ^ ": plateaus") plateaus r.Sa.plateaus;
      Alcotest.(check int) (what ^ ": moves")
        (plateaus * params.Sa.moves_per_plateau)
        r.Sa.moves)
    [ ("default", Sa.default_params, 111); ("quick", Sa.quick_params, 57) ]

let test_explicit_temperature () =
  let cost, neighbor = quadratic_setup () in
  (* 31 plateaus of 64: 1,984 moves *)
  let params = { Sa.default_params with Sa.initial_temp = Some 10.0; min_temp = 0.08 } in
  let r = Sa.minimize ~rng:(Util.Rng.create 2) ~init:10.0 ~cost ~neighbor ~params () in
  Alcotest.(check bool) "still converges" true (abs_float (r.Sa.best -. 3.0) < 1.0)

(* Calibration burns [calibration_samples] cost evaluations before the
   annealing proper; they are reported separately from [moves] so a
   cost-call budget can rely on moves + calibration_moves + 1. *)
let test_calibration_moves_reported () =
  let cost, neighbor = quadratic_setup () in
  let r = Sa.minimize ~rng:(Util.Rng.create 3) ~init:10.0 ~cost ~neighbor () in
  Alcotest.(check int) "calibrated run reports the samples" Sa.calibration_samples
    r.Sa.calibration_moves

let test_calibration_moves_zero_with_explicit_temp () =
  let cost, neighbor = quadratic_setup () in
  let params = { Sa.default_params with Sa.initial_temp = Some 10.0 } in
  let r = Sa.minimize ~rng:(Util.Rng.create 3) ~init:10.0 ~cost ~neighbor ~params () in
  Alcotest.(check int) "explicit temp skips calibration" 0 r.Sa.calibration_moves

(* [moves] must not silently absorb the calibration evaluations: it
   counts the schedule's proposals alone, and the total cost-call count
   is exactly moves + calibration_moves (+1 for the initial state). *)
let test_cost_calls_accounted () =
  let cost, neighbor = quadratic_setup () in
  let calls = ref 0 in
  let cost x = incr calls; cost x in
  (* 9 plateaus of 64 *)
  let params = { Sa.default_params with Sa.min_temp = 0.5 } in
  let r = Sa.minimize ~rng:(Util.Rng.create 1) ~init:10.0 ~cost ~neighbor ~params () in
  Alcotest.(check int) "moves excludes calibration" (9 * 64) r.Sa.moves;
  Alcotest.(check int) "cost calls = moves + calibration + init"
    (r.Sa.moves + r.Sa.calibration_moves + 1)
    !calls

let test_stats_consistent () =
  let cost, neighbor = quadratic_setup () in
  let r = Sa.minimize ~rng:(Util.Rng.create 5) ~init:0.0 ~cost ~neighbor () in
  Alcotest.(check bool) "accepted <= moves" true (r.Sa.accepted <= r.Sa.moves);
  Alcotest.(check bool) "ran some plateaus" true (r.Sa.plateaus > 0)

let best_never_worse_than_init =
  qtest "best cost never exceeds the initial cost"
    QCheck.(pair small_int (float_range (-50.0) 50.0))
    (fun (seed, init) ->
      let cost, neighbor = quadratic_setup () in
      let params = Sa.quick_params in
      let r = Sa.minimize ~rng:(Util.Rng.create seed) ~init ~cost ~neighbor ~params () in
      r.Sa.best_cost <= cost init +. 1e-9)

let discrete_state_space =
  qtest "works on discrete states (int moves)"
    QCheck.small_int
    (fun seed ->
      let cost x = float_of_int (abs (x - 7)) in
      let neighbor rng x = x + Util.Rng.range rng (-2) 2 in
      let r =
        Sa.minimize ~rng:(Util.Rng.create seed) ~init:100 ~cost ~neighbor
          ~params:Sa.quick_params ()
      in
      r.Sa.best_cost <= cost 100)

(* Calibration divides by log(initial_acceptance): a target outside
   (0, 1) would silently quench (log 1 = 0) or produce NaN/negative
   temperatures, so it must be rejected up front — but only when
   calibration actually runs (an explicit initial_temp never reads the
   target). *)
let test_acceptance_validation () =
  let cost, neighbor = quadratic_setup () in
  let run params =
    Sa.minimize ~rng:(Util.Rng.create 1) ~init:10.0 ~cost ~neighbor ~params ()
  in
  (* 7 plateaus of 10 *)
  let short = { Sa.default_params with Sa.moves_per_plateau = 10; min_temp = 0.6 } in
  let rejected a =
    match run { short with Sa.initial_acceptance = a } with
    | exception Guard.Diag.Fail d -> d.Guard.Diag.code = "bad-sa-acceptance"
    | _ -> false
  in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "initial_acceptance %g rejected" a)
        true (rejected a))
    [ 0.0; 1.0; -0.3; 1.5; Float.nan ];
  (* valid target and explicit-temperature paths stay untouched *)
  let ok = run { short with Sa.initial_acceptance = 0.5 } in
  Alcotest.(check bool) "valid target runs" true (ok.Sa.moves > 0);
  let explicit =
    run { short with Sa.initial_temp = Some 5.0; initial_acceptance = 1.5 }
  in
  Alcotest.(check bool) "explicit temp skips the validation" true
    (explicit.Sa.moves > 0)

(* A schedule that cannot run is rejected before any cost call, with
   one structured diagnostic per case. With no move per plateau, a
   cooling factor of 1 or a min_temp of 0 the loop would spin forever. *)
let test_params_validation () =
  let cost, neighbor = quadratic_setup () in
  let calls = ref 0 in
  let cost x =
    incr calls;
    cost x
  in
  let rejected what params =
    calls := 0;
    match Sa.minimize ~rng:(Util.Rng.create 1) ~init:10.0 ~cost ~neighbor ~params () with
    | exception Guard.Diag.Fail d ->
      Alcotest.(check string) (what ^ ": code") "bad-sa-params" d.Guard.Diag.code;
      Alcotest.(check int) (what ^ ": no cost call") 0 !calls
    | _ -> Alcotest.failf "%s was accepted" what
  in
  let p = Sa.default_params in
  rejected "moves_per_plateau 0, cooling 1"
    { p with Sa.moves_per_plateau = 0; cooling = 1.0 };
  rejected "moves_per_plateau 0" { p with Sa.moves_per_plateau = 0 };
  rejected "moves_per_plateau -3" { p with Sa.moves_per_plateau = -3 };
  List.iter
    (fun c -> rejected (Printf.sprintf "cooling %g" c) { p with Sa.cooling = c })
    [ 1.0; 0.0; -0.5; 1.5; Float.nan ];
  List.iter
    (fun m -> rejected (Printf.sprintf "min_temp %g" m) { p with Sa.min_temp = m })
    [ 0.0; -1e-4; 1.0; 1.5; Float.nan ];
  List.iter
    (fun t -> rejected (Printf.sprintf "initial_temp %g" t) { p with Sa.initial_temp = Some t })
    [ 0.0; -1.0; Float.infinity; Float.nan ];
  (* the edges that can run still do *)
  let r = Sa.minimize ~rng:(Util.Rng.create 1) ~init:10.0 ~cost ~neighbor
      ~params:{ p with Sa.min_temp = 0.99 } () in
  Alcotest.(check int) "min_temp 0.99 runs one plateau" 1 r.Sa.plateaus;
  let r = Sa.minimize ~rng:(Util.Rng.create 1) ~init:10.0 ~cost ~neighbor
      ~params:{ p with Sa.moves_per_plateau = 1; min_temp = 0.02 } () in
  Alcotest.(check int) "one move per plateau" r.Sa.moves r.Sa.plateaus

(* The in-place loop on the Polish walker against the functional loop on
   [Polish.perturb]: equal RNGs and one cost give the same best, the
   same statistics, the same per-plateau snapshots, the same cost calls
   in the same order and the same final RNG state, so undoing a
   rejected move in place is the functional loop's dropping it. *)
let test_in_place_matches_functional () =
  List.iter
    (fun (n, seed) ->
      let cost_of e =
        (* any deterministic function of the expression *)
        float_of_int (Hashtbl.hash (Slicing.Polish.elements e) land 0xffff)
      in
      let run in_place =
        let rng = Util.Rng.create seed in
        let init = Slicing.Polish.initial_random rng ~n in
        let calls = ref [] and plateaus = ref [] in
        let observer p = plateaus := p :: !plateaus in
        (* 47 plateaus of 64 *)
        let params = { Sa.default_params with Sa.min_temp = 0.02 } in
        let stats (r : _ Sa.result) =
          ( r.Sa.best_cost, r.Sa.moves, r.Sa.accepted, r.Sa.plateaus, r.Sa.calibration_moves,
            r.Sa.final_temperature )
        in
        let best, stats =
          if in_place then begin
            let module W = Slicing.Polish.Walker in
            let cost w =
              let c = cost_of (W.expr w) in
              calls := c :: !calls;
              c
            in
            let r =
              Sa.anneal ~rng ~init:(W.create init) ~cost ~perturb:W.perturb ~undo:W.undo
                ~copy:W.copy ~params ~observer ()
            in
            (Slicing.Polish.elements (W.expr r.Sa.best), stats r)
          end
          else begin
            let cost e =
              let c = cost_of e in
              calls := c :: !calls;
              c
            in
            let r =
              Sa.minimize ~rng ~init ~cost ~neighbor:Slicing.Polish.perturb ~params ~observer ()
            in
            (Slicing.Polish.elements r.Sa.best, stats r)
          end
        in
        (best, stats, !calls, !plateaus, Util.Rng.state rng)
      in
      let b1, s1, c1, p1, g1 = run true and b2, s2, c2, p2, g2 = run false in
      let what = Printf.sprintf "n = %d, seed %d" n seed in
      Alcotest.(check bool) (what ^ ": best") true (b1 = b2);
      Alcotest.(check bool) (what ^ ": statistics") true (s1 = s2);
      Alcotest.(check bool) (what ^ ": cost calls") true (c1 = c2);
      Alcotest.(check bool) (what ^ ": plateaus") true (p1 = p2);
      Alcotest.(check bool) (what ^ ": RNG state") true (g1 = g2))
    [ (2, 1); (5, 2); (7, 3); (12, 4) ]

let suite =
  [ ( "anneal.sa",
      [ Alcotest.test_case "minimizes quadratic" `Quick test_minimizes_quadratic;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "schedule length" `Quick test_schedule_length;
        Alcotest.test_case "explicit temperature" `Quick test_explicit_temperature;
        Alcotest.test_case "calibration moves reported" `Quick
          test_calibration_moves_reported;
        Alcotest.test_case "calibration moves zero with explicit temp" `Quick
          test_calibration_moves_zero_with_explicit_temp;
        Alcotest.test_case "cost calls accounted" `Quick test_cost_calls_accounted;
        Alcotest.test_case "stats consistent" `Quick test_stats_consistent;
        Alcotest.test_case "acceptance target validated" `Quick
          test_acceptance_validation;
        Alcotest.test_case "schedule parameters validated" `Quick test_params_validation;
        Alcotest.test_case "in-place walker loop equals the functional loop" `Quick
          test_in_place_matches_functional;
        best_never_worse_than_init; discrete_state_space ] ) ]
