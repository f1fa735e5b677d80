(* Incremental SA cost evaluation (DESIGN.md section 14).

   The contract under test: [Slicing.Inc] evaluated along any random
   M1/M2/M3 perturbation sequence is bit for bit [Layout.evaluate] on
   the same expression — violations, rectangles and centers; the cost
   [Layout_gen.run] reports (a full walk plus a pair scan) is bitwise
   the best cost the annealer reached through [Inc] and the pair
   tables, and the result is bit-identical at every job count; the
   configured start count is honored exactly (sa_starts = 1 runs one
   start); and an asymmetric affinity matrix is rejected with a
   structured diagnostic instead of silently dropping weight. *)

module Rect = Geom.Rect
module Point = Geom.Point
module Curve = Shape.Curve
module Polish = Slicing.Polish
module Layout = Slicing.Layout
module Inc = Slicing.Inc
module LG = Hidap.Layout_gen

let qtest ~count name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let beq a b = Int64.bits_of_float a = Int64.bits_of_float b

let beq_viol (a : Layout.violations) (b : Layout.violations) =
  beq a.Layout.at_shift b.Layout.at_shift
  && beq a.Layout.am_deficit b.Layout.am_deficit
  && beq a.Layout.macro_deficit b.Layout.macro_deficit

let beq_rect (a : Rect.t) (b : Rect.t) =
  beq a.Rect.x b.Rect.x && beq a.Rect.y b.Rect.y && beq a.Rect.w b.Rect.w
  && beq a.Rect.h b.Rect.h

let seed_arb = QCheck.int_range 0 1_000_000

(* Random leaves: a mix of unconstrained (soft) and macro-curved blocks,
   with areas that may or may not fit the budget so every violation
   grade shows up in the comparison. *)
let random_leaves rng ~budget n =
  Array.init n (fun lid ->
      let am =
        1.0 +. Util.Rng.float rng (1.5 *. Rect.area budget /. float_of_int n)
      in
      let curve =
        if Util.Rng.bool rng then Curve.unconstrained
        else
          Curve.of_macro
            ~w:(1.0 +. Util.Rng.float rng 6.0)
            ~h:(1.0 +. Util.Rng.float rng 6.0)
            ()
      in
      { Layout.lid; curve; area_min = am;
        area_target = am *. (1.0 +. Util.Rng.float rng 0.5) })

let random_budget rng =
  Rect.make ~x:0.0 ~y:0.0
    ~w:(5.0 +. Util.Rng.float rng 45.0)
    ~h:(5.0 +. Util.Rng.float rng 45.0)

(* One incremental evaluation checked bitwise against the full one. *)
let check_step inc expr ~leaves ~budget =
  let vi = Inc.evaluate inc expr in
  let p = Layout.evaluate expr ~leaves ~budget in
  let rects = Inc.rects inc and cx = Inc.centers_x inc and cy = Inc.centers_y inc in
  beq_viol vi (Inc.violations inc)
  && beq_viol vi p.Layout.viol
  && List.length p.Layout.rects = Array.length leaves
  && List.for_all
       (fun (lid, r) ->
         let c = Rect.center r in
         beq_rect r rects.(lid)
         && beq c.Point.x cx.(lid)
         && beq c.Point.y cy.(lid))
       p.Layout.rects

(* ---- incremental vs full along move sequences ----------------------- *)

let inc_matches_full_random_walk =
  qtest ~count:150 "incremental = full along random M1/M2/M3 walks, bitwise"
    seed_arb (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 2 + Util.Rng.int rng 9 in
      let budget = random_budget rng in
      let leaves = random_leaves rng ~budget n in
      let table = Layout.leaf_table leaves in
      let inc = Inc.create ~table ~budget in
      let expr = ref (Polish.initial_random rng ~n) in
      let ok = ref (check_step inc !expr ~leaves ~budget) in
      for _ = 1 to 12 do
        expr := Polish.perturb rng !expr;
        ok := !ok && check_step inc !expr ~leaves ~budget
      done;
      !ok)

(* Each move kind on its own, so a regression in one diff path cannot
   hide behind the others in the mixed walk above. *)
let inc_matches_full_per_move =
  qtest ~count:100 "incremental = full for each move kind in isolation"
    seed_arb (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 3 + Util.Rng.int rng 8 in
      let budget = random_budget rng in
      let leaves = random_leaves rng ~budget n in
      let table = Layout.leaf_table leaves in
      List.for_all
        (fun move ->
          let inc = Inc.create ~table ~budget in
          let expr = ref (Polish.initial_random rng ~n) in
          let ok = ref (check_step inc !expr ~leaves ~budget) in
          for _ = 1 to 6 do
            (match move rng !expr with Some e -> expr := e | None -> ());
            ok := !ok && check_step inc !expr ~leaves ~budget
          done;
          !ok)
        [ Polish.move_m1; Polish.move_m2; Polish.move_m3 ])

(* The annealer's reject pattern: evaluate A, candidate B, then A again.
   The third evaluation diffs as a reverted window and must still be
   bit-identical to a cold full evaluation of A. *)
let inc_handles_reverts =
  qtest ~count:150 "evaluating A, B, A again stays bit-identical" seed_arb
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 2 + Util.Rng.int rng 9 in
      let budget = random_budget rng in
      let leaves = random_leaves rng ~budget n in
      let table = Layout.leaf_table leaves in
      let inc = Inc.create ~table ~budget in
      let a = Polish.initial_random rng ~n in
      let b = Polish.perturb rng a in
      check_step inc a ~leaves ~budget
      && check_step inc b ~leaves ~budget
      && check_step inc a ~leaves ~budget)

(* ---- the annealer's cost is the result's cost ----------------------- *)

let fast_config ~jobs =
  { Hidap.Config.default with
    Hidap.Config.jobs;
    sa_starts = 3;
    layout_sa = { Anneal.Sa.quick_params with Anneal.Sa.max_moves = 600 } }

let random_instance seed =
  let rng = Util.Rng.create seed in
  let n = 2 + Util.Rng.int rng 7 in
  let nf = Util.Rng.int rng 3 in
  let budget = random_budget rng in
  let blocks =
    Array.init n (fun i ->
        let am =
          1.0 +. Util.Rng.float rng (1.5 *. Rect.area budget /. float_of_int n)
        in
        { Hidap.Block.idx = i; ht_id = i; name = Printf.sprintf "b%d" i;
          curve = Curve.unconstrained;
          am;
          at = am *. (1.0 +. Util.Rng.float rng 0.5);
          macro_count = Util.Rng.int rng 3 })
  in
  let total = n + nf in
  let affinity = Array.make_matrix total total 0.0 in
  for i = 0 to total - 1 do
    for j = i + 1 to total - 1 do
      if Util.Rng.bool rng then begin
        let w = 0.1 +. Util.Rng.float rng 2.0 in
        affinity.(i).(j) <- w;
        affinity.(j).(i) <- w
      end
    done
  done;
  let fixed_pos =
    Array.init nf (fun _ ->
        Point.make (Util.Rng.float rng budget.Rect.w)
          (Util.Rng.float rng budget.Rect.h))
  in
  (blocks, affinity, fixed_pos, budget)

(* Runs one instance and also returns the lowest [plateau_best_cost]
   the observer saw across all starts (infinity when no plateau ran).
   Best-so-far costs only fall, so that minimum is the minimum of the
   starts' final best costs. The observer runs on worker domains. *)
let run_one seed ~jobs =
  let blocks, affinity, fixed_pos, budget = random_instance seed in
  let lock = Mutex.create () in
  let best = ref infinity in
  let observer (p : Anneal.Sa.plateau) =
    let c = p.Anneal.Sa.plateau_best_cost in
    Mutex.protect lock (fun () -> if c < !best then best := c)
  in
  let r =
    LG.run ~observer
      ~rng:(Util.Rng.create (seed + 7))
      ~config:(fast_config ~jobs) ~blocks ~affinity ~fixed_pos ~budget ()
  in
  (r, !best)

let same_result (a : LG.result) (b : LG.result) =
  Array.length a.LG.rects = Array.length b.LG.rects
  && Array.for_all2 beq_rect a.LG.rects b.LG.rects
  && beq a.LG.cost b.LG.cost
  && beq a.LG.wirelength_term b.LG.wirelength_term
  && beq_viol a.LG.viol b.LG.viol
  && a.LG.sa_moves = b.LG.sa_moves

let run_cost_is_annealer_best =
  qtest ~count:8 "run cost equals the annealer's best at jobs 1/2/4" seed_arb
    (fun seed ->
      let runs = List.map (fun jobs -> run_one seed ~jobs) [ 1; 2; 4 ] in
      let base = fst (List.hd runs) in
      List.for_all (fun (r, best) -> beq r.LG.cost best && same_result base r) runs)

(* ---- sa_starts is honored exactly ----------------------------------- *)

(* Every start beyond the first bumps the reheat counter, so the
   counter pins the actual start count: sa_starts = 1 must report zero
   reheats (it used to silently run the reversed chain as a second
   start). *)
let test_sa_starts_honored () =
  List.iter
    (fun n_starts ->
      let blocks, affinity, fixed_pos, budget = random_instance 42 in
      let config =
        { (fast_config ~jobs:1) with
          Hidap.Config.sa_starts = n_starts }
      in
      let reg = Obs.Perf.create () in
      Obs.Perf.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Perf.set_enabled false)
        (fun () ->
          Obs.Perf.with_ambient reg (fun () ->
              ignore
                (LG.run ~rng:(Util.Rng.create 1) ~config ~blocks ~affinity
                   ~fixed_pos ~budget ())));
      Alcotest.(check int)
        (Printf.sprintf "sa_starts = %d runs exactly %d starts" n_starts n_starts)
        (n_starts - 1)
        (Obs.Perf.get reg Obs.Perf.sa_reheats))
    [ 1; 2; 4 ]

(* ---- asymmetric affinity is rejected -------------------------------- *)

let diag_code = function Guard.Diag.Fail d -> Some d.Guard.Diag.code | _ -> None

let test_asymmetric_affinity_rejected () =
  let blocks, affinity, fixed_pos, budget = random_instance 7 in
  affinity.(0).(1) <- 1.0;
  affinity.(1).(0) <- 2.0;
  (match
     LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos
       ~budget
       (Polish.initial ~n:(Array.length blocks))
   with
  | exception (Guard.Diag.Fail _ as e) ->
    Alcotest.(check (option string))
      "asymmetric matrix fails with asymmetric-affinity"
      (Some "asymmetric-affinity") (diag_code e)
  | _ -> Alcotest.fail "asymmetric affinity was accepted");
  affinity.(1).(0) <- Float.nan;
  match
    LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos
      ~budget
      (Polish.initial ~n:(Array.length blocks))
  with
  | exception (Guard.Diag.Fail _ as e) ->
    Alcotest.(check (option string)) "NaN weight fails with asymmetric-affinity"
      (Some "asymmetric-affinity") (diag_code e)
  | _ -> Alcotest.fail "NaN affinity weight was accepted"

let suite =
  [ ( "incremental",
      [ inc_matches_full_random_walk; inc_matches_full_per_move;
        inc_handles_reverts; run_cost_is_annealer_best;
        Alcotest.test_case "sa_starts honored exactly" `Quick
          test_sa_starts_honored;
        Alcotest.test_case "asymmetric affinity rejected" `Quick
          test_asymmetric_affinity_rejected ] ) ]
