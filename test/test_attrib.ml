(* Exact cost-term attribution (DESIGN.md §13).

   The contract under test: the named breakdown terms sum to the
   annealer's scalar bit for bit; the per-pair wirelength shares fold
   back to the wirelength term bit for bit; the attributed layout
   evaluation's per-leaf charges reconcile with its violation totals;
   and neither the
   attribution nor the job count ever changes a placement. *)

module Rect = Geom.Rect
module Point = Geom.Point
module LG = Hidap.Layout_gen

let qtest ~count name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* Bit equality: float (=) would conflate -0.0 with 0.0 and is the
   wrong notion for a "bit for bit" contract. *)
let beq a b = Int64.bits_of_float a = Int64.bits_of_float b

let beq_breakdown (a : LG.breakdown) (b : LG.breakdown) =
  beq a.LG.bd_wirelength b.LG.bd_wirelength
  && beq a.LG.bd_at_penalty b.LG.bd_at_penalty
  && beq a.LG.bd_am_penalty b.LG.bd_am_penalty
  && beq a.LG.bd_macro_penalty b.LG.bd_macro_penalty
  && beq a.LG.bd_residual b.LG.bd_residual

(* Random layout instance: 1-8 blocks, 0-2 fixed endpoints, a budget
   the blocks may or may not fit (so every violation grade gets
   exercised), random symmetric affinity with zero entries. *)
let random_instance seed =
  let rng = Util.Rng.create seed in
  let n = 1 + Util.Rng.int rng 8 in
  let nf = Util.Rng.int rng 3 in
  let budget =
    Rect.make ~x:0.0 ~y:0.0
      ~w:(5.0 +. Util.Rng.float rng 45.0)
      ~h:(5.0 +. Util.Rng.float rng 45.0)
  in
  let blocks =
    Array.init n (fun i ->
        let am =
          1.0 +. Util.Rng.float rng (1.5 *. Rect.area budget /. float_of_int n)
        in
        { Hidap.Block.idx = i; ht_id = i; name = Printf.sprintf "b%d" i;
          curve = Shape.Curve.unconstrained;
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
  let expr = Slicing.Polish.initial_random rng ~n in
  (blocks, affinity, fixed_pos, budget, expr)

let seed_arb = QCheck.int_range 0 1_000_000

(* ---- decomposition exactness --------------------------------------- *)

let breakdown_sums_exactly =
  qtest ~count:200 "breakdown terms sum bit-exactly to the cost" seed_arb (fun seed ->
      let blocks, affinity, fixed_pos, budget, expr = random_instance seed in
      let r =
        LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos
          ~budget expr
      in
      beq (LG.breakdown_total r.LG.breakdown) r.LG.cost
      && List.map fst (LG.breakdown_terms r.LG.breakdown) = LG.term_names)

let pair_fold_exact =
  qtest ~count:200 "pair shares fold bit-exactly to the wirelength term" seed_arb
    (fun seed ->
      let blocks, affinity, fixed_pos, budget, expr = random_instance seed in
      let r =
        LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos
          ~budget expr
      in
      let pairs = r.LG.attribution.LG.attr_pairs in
      if Array.length pairs = 0 then
        (* no affinity pairs: the wirelength slot carries the 1.0
           legality bias and there is nothing to fold *)
        beq r.LG.breakdown.LG.bd_wirelength 1.0
      else
        beq
          (Array.fold_left (fun acc p -> acc +. p.LG.pc_wl) 0.0 pairs)
          r.LG.breakdown.LG.bd_wirelength)

(* ---- attributed layout evaluation ---------------------------------- *)

let attributed_eval_reconciles =
  qtest ~count:200 "evaluate_attributed charges reconcile with the totals" seed_arb
    (fun seed ->
      let blocks, _, _, budget, expr = random_instance seed in
      let leaves = Array.map Hidap.Block.to_leaf blocks in
      let p, per_leaf = Slicing.Layout.evaluate_attributed expr ~leaves ~budget in
      let close total parts =
        (* charges reconcile up to float rounding; the residual term
           absorbs the gap downstream *)
        abs_float (total -. parts) <= 1e-6 *. (1.0 +. abs_float total)
      in
      close p.Slicing.Layout.viol.Slicing.Layout.at_shift
           (Array.fold_left
              (fun a v -> a +. v.Slicing.Layout.at_shift)
              0.0 per_leaf)
      && close p.Slicing.Layout.viol.Slicing.Layout.am_deficit
           (Array.fold_left
              (fun a v -> a +. v.Slicing.Layout.am_deficit)
              0.0 per_leaf)
      && close p.Slicing.Layout.viol.Slicing.Layout.macro_deficit
           (Array.fold_left
              (fun a v -> a +. v.Slicing.Layout.macro_deficit)
              0.0 per_leaf))

(* ---- job-count and observer neutrality ----------------------------- *)

let fast_config jobs =
  { Hidap.Config.default with
    Hidap.Config.jobs;
    sa_starts = 3;
    layout_sa = { Anneal.Sa.quick_params with Anneal.Sa.max_moves = 600 } }

let run_one seed ~jobs ~observe =
  let blocks, affinity, fixed_pos, budget, _ = random_instance seed in
  let observed = ref 0 in
  let term_observer =
    if observe then Some (fun _ (_ : LG.breakdown) -> incr observed) else None
  in
  let r =
    LG.run ?term_observer
      ~rng:(Util.Rng.create (seed + 7))
      ~config:(fast_config jobs) ~blocks ~affinity ~fixed_pos ~budget ()
  in
  (r, !observed, Array.length blocks)

let same_result (a : LG.result) (b : LG.result) =
  Array.length a.LG.rects = Array.length b.LG.rects
  && Array.for_all2
       (fun (ra : Rect.t) (rb : Rect.t) ->
         beq ra.Rect.x rb.Rect.x && beq ra.Rect.y rb.Rect.y
         && beq ra.Rect.w rb.Rect.w && beq ra.Rect.h rb.Rect.h)
       a.LG.rects b.LG.rects
  && beq a.LG.cost b.LG.cost
  && beq_breakdown a.LG.breakdown b.LG.breakdown

let attribution_is_neutral =
  qtest ~count:8 "attribution and job count never change the result" seed_arb
    (fun seed ->
      let base, n_observed, n_blocks = run_one seed ~jobs:1 ~observe:true in
      (* single-block instances skip the annealer entirely, so the
         term observer legitimately never fires there *)
      (n_blocks < 2 || n_observed > 0)
      && List.for_all
           (fun (jobs, observe) ->
             let r, _, _ = run_one seed ~jobs ~observe in
             same_result base r)
           [ (1, false); (2, true); (2, false); (4, true) ])

(* ---- progress stream v2 -------------------------------------------- *)

let test_stream_v2 () =
  Alcotest.(check int) "hidap-progress schema version" 2 Obs.Stream.version;
  let path = Filename.temp_file "hidap_attrib" ".ndjson" in
  let oc = open_out path in
  (* heartbeat_s 0: the heartbeat domain would race its first event
     against [sa_progress] below, leaving two documents in the file. *)
  Obs.Stream.enable ~heartbeat_s:0.0 ~close_on_disable:true oc;
  Obs.Stream.sa_progress ~instance:1 ~instances:1 ~temperature:0.5 ~best_cost:10.0
    ~cost_terms:[ ("wirelength", 9.0); ("residual", 1.0) ]
    ~moves:100 ~moves_per_s:50.0 ();
  Obs.Stream.disable ();
  (match Obs.Jsonx.parse_file path with
  | Error msg -> Alcotest.failf "progress event did not parse: %s" msg
  | Ok j ->
    Alcotest.(check bool) "event version 2" true
      (Option.bind (Obs.Jsonx.member "version" j) Obs.Jsonx.to_int_opt = Some 2);
    let terms = Obs.Jsonx.member "cost_terms" j in
    Alcotest.(check bool) "cost_terms object present" true
      (match terms with Some (Obs.Jsonx.Obj _) -> true | _ -> false);
    Alcotest.(check bool) "term value round-trips" true
      (Option.bind
         (Option.bind terms (Obs.Jsonx.member "wirelength"))
         Obs.Jsonx.to_float_opt
      = Some 9.0));
  Sys.remove path

let suite =
  [ ( "attribution",
      [ breakdown_sums_exactly; pair_fold_exact; attributed_eval_reconciles;
        attribution_is_neutral;
        Alcotest.test_case "progress stream v2 carries cost terms" `Quick
          test_stream_v2 ] ) ]
