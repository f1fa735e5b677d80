(* Incremental SA cost evaluation (DESIGN.md section 14).

   The contract under test: [Slicing.Inc] evaluated along any random
   M1/M2/M3 perturbation sequence is bit for bit [Layout.evaluate] on
   the same expression — violations, rectangles and centers; the cost
   [Layout_gen.run] reports (a full walk plus a pair scan) is bitwise
   the best cost the annealer reached through [Inc] and the pair
   tables, and the result is bit-identical at every job count; the
   instance cost table the starts of one instance share returns
   exactly what a full evaluation would, cost frame included; the
   configured start count is honored exactly (sa_starts = 1 runs one
   start); the exact search on up to five blocks is a brute force over
   full evaluations, first tie included, at every job count, and leaves
   the parent RNG where the annealer would; and an asymmetric affinity
   matrix is rejected with a structured diagnostic instead of silently
   dropping weight. *)

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
  Inc.evaluate inc expr;
  let vi = Inc.violations inc and tot = Inc.totals inc in
  let p = Layout.evaluate expr ~leaves ~budget in
  let rects = Inc.rects inc and cx = Inc.centers_x inc and cy = Inc.centers_y inc in
  beq_viol vi
    { Layout.at_shift = tot.(0); am_deficit = tot.(1); macro_deficit = tot.(2) }
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
    (* 25 plateaus of 24: 600 moves per start *)
    layout_sa = { Anneal.Sa.quick_params with Anneal.Sa.min_temp = 0.018 } }

let random_instance ?n seed =
  let rng = Util.Rng.create seed in
  let n = match n with Some n -> n | None -> 2 + Util.Rng.int rng 7 in
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

(* A fixed 7-block instance: soft blocks, two-point macro curves and a
   four-point staircase, with two fixed endpoints. *)
let alloc_instance () =
  let n = 7 in
  let budget = Rect.make ~x:0.0 ~y:0.0 ~w:40.0 ~h:30.0 in
  let blocks =
    Array.init n (fun i ->
        let curve =
          match i mod 3 with
          | 0 -> Curve.unconstrained
          | 1 ->
            Curve.of_macro ~w:(3.0 +. float_of_int i) ~h:(2.0 +. float_of_int (i mod 2)) ()
          | _ -> Curve.of_points [ (2.0, 9.0); (4.0, 5.0); (7.0, 3.0); (10.0, 2.0) ]
        in
        let am = 60.0 +. (10.0 *. float_of_int i) in
        { Hidap.Block.idx = i; ht_id = i; name = Printf.sprintf "b%d" i; curve; am;
          at = am *. 1.2; macro_count = i mod 3 })
  in
  let fixed_pos = [| Point.make 0.0 0.0; Point.make 40.0 30.0 |] in
  let total = n + Array.length fixed_pos in
  let affinity = Array.make_matrix total total 0.0 in
  for i = 0 to total - 1 do
    for j = i + 1 to total - 1 do
      if (i + j) mod 3 <> 0 then begin
        let w = 1.0 +. float_of_int ((i * j) mod 4) in
        affinity.(i).(j) <- w;
        affinity.(j).(i) <- w
      end
    done
  done;
  (blocks, affinity, fixed_pos, budget)

(* Runs one instance of 6 to 8 blocks (fewer are solved exactly, with
   no annealer) and also returns the lowest [plateau_best_cost] the
   observer saw across all starts (infinity when no plateau ran).
   Best-so-far costs only fall, so that minimum is the minimum of the
   starts' final best costs. The observer runs on worker domains. *)
let run_one seed ~jobs =
  let blocks, affinity, fixed_pos, budget = random_instance ~n:(6 + (seed mod 3)) seed in
  let lock = Mutex.create () in
  let best = ref infinity in
  let observer (p : Anneal.Sa.plateau) (_ : LG.breakdown) =
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

(* ---- the instance cost table ----------------------------------------- *)

(* The cost of an expression from a cold full evaluation. *)
let full_cost ~blocks ~affinity ~fixed_pos ~budget e =
  (LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos ~budget e).LG.cost

(* A walk that revisits: each move is scored, then its inverse (back to
   the previous expression), then the move again, then a replay of an
   earlier expression. Every call is compared bitwise with a cold full
   evaluation, so a hit is right exactly when it returns what a miss
   would have computed. Sizes 2..8 run with the instance table on,
   9..12 with it off (the packed key would not fit an int). *)
let table_matches_eval_on_revisits =
  qtest ~count:12 "annealing_cost = eval_expr bitwise on revisiting walks, n = 2..12"
    seed_arb (fun seed ->
      List.for_all
        (fun n ->
          let blocks, affinity, fixed_pos, budget = random_instance ~n seed in
          let cost =
            (LG.annealing_costs ~starts:1 ~config:Hidap.Config.default ~blocks ~affinity
               ~fixed_pos ~budget).(0)
          in
          let exact e = beq (cost e) (full_cost ~blocks ~affinity ~fixed_pos ~budget e) in
          let rng = Util.Rng.create (seed + n) in
          let steps = 40 in
          let history = Array.make steps (Polish.initial_random rng ~n) in
          let cur = ref history.(0) in
          let ok =
            ref (exact !cur && (LG.table_slot_of ~n_blocks:n !cur <> None) = (n <= 8))
          in
          for s = 1 to steps - 1 do
            let next = Polish.perturb rng !cur in
            ok :=
              !ok && exact next && exact !cur && exact next
              && exact history.(Util.Rng.int rng s);
            history.(s) <- next;
            cur := next
          done;
          !ok)
        (List.init 11 (fun i -> i + 2)))

(* Two expressions of different cost that [slot_of] maps to one slot,
   found along a perturbation walk on [n] blocks. *)
let colliding_pair ~slot_of ~full_cost ~n ~tries rng =
  let by_slot = Hashtbl.create 4096 in
  let rec find e tries =
    if tries = 0 then Alcotest.failf "n = %d: no slot collision found" n
    else begin
      let slot = Option.get (slot_of ~n_blocks:n e) in
      match Hashtbl.find_opt by_slot slot with
      | Some e'
        when Polish.elements e' <> Polish.elements e
             && not (beq (full_cost e) (full_cost e')) ->
        (e', e)
      | Some _ -> find (Polish.perturb rng e) (tries - 1)
      | None ->
        Hashtbl.add by_slot slot e;
        find (Polish.perturb rng e) (tries - 1)
    end
  in
  find (Polish.initial_random rng ~n) tries

(* Two expressions of different cost that share an instance-table home
   slot, scored alternately by two starts of one instance, so the
   table answers or probes past the other tenant every time. A lookup
   that trusted the slot without the key, or an entry holding another
   expression's cost, would differ from the cold full evaluation. *)
let test_instance_table_collision () =
  List.iter
    (fun n ->
      let blocks, affinity, fixed_pos, budget = random_instance ~n 23 in
      let costs =
        LG.annealing_costs ~starts:2 ~config:Hidap.Config.default ~blocks ~affinity
          ~fixed_pos ~budget
      in
      let full_cost = full_cost ~blocks ~affinity ~fixed_pos ~budget in
      let a, b =
        colliding_pair ~slot_of:LG.table_slot_of ~full_cost ~n ~tries:200_000
          (Util.Rng.create n)
      in
      List.iter
        (fun (start, e) ->
          if not (beq (costs.(start) e) (full_cost e)) then
            Alcotest.failf "n = %d: start %d scored a shared-slot tenant wrongly" n start)
        [ (0, a); (1, b); (0, b); (1, a); (0, a); (1, b); (1, a); (0, b) ])
    [ 5; 6; 8 ]

(* Bounded linear probing, forced: a hook sends every key to one home
   slot (once near the start of the table, once two slots before its
   end, so the probe chain wraps), and two starts of one instance score
   20 distinct expressions. The first 8 fill the probe chain, every
   later one finds it full and overwrites the home slot, and each start
   then re-scores them all in another order: lookups walk the chain,
   hit entries past the home slot and miss the overwritten ones. Every
   cost must be [eval_expr]'s bit for bit. *)
let test_instance_table_probing () =
  List.iter
    (fun (n, home) ->
      let blocks, affinity, fixed_pos, budget = random_instance ~n 29 in
      let costs =
        LG.walker_costs ~home:(fun _ -> home) ~starts:2 ~config:Hidap.Config.default ~blocks
          ~affinity ~fixed_pos ~budget ()
      in
      let full_cost = full_cost ~blocks ~affinity ~fixed_pos ~budget in
      let rng = Util.Rng.create (n + home) in
      let distinct = ref [] in
      let e = ref (Polish.initial_random rng ~n) in
      while List.length !distinct < 20 do
        if not (List.exists (fun d -> Polish.elements d = Polish.elements !e) !distinct) then
          distinct := !e :: !distinct;
        e := Polish.perturb rng !e
      done;
      let exprs = Array.of_list (List.rev !distinct) in
      let order = Array.init 20 Fun.id in
      let score start i =
        let e = exprs.(i) in
        if not (beq (costs.(start) (LG.walker ~n_blocks:n e)) (full_cost e)) then
          Alcotest.failf "n = %d, home %d: start %d scored expression %d wrongly" n home
            start i
      in
      Array.iter (score 0) order;
      Array.iter (score 1) (Array.init 20 (fun i -> 19 - i));
      Util.Rng.shuffle rng order;
      Array.iter (score 1) order;
      Array.iter (score 0) order)
    [ (5, 7); (6, (1 lsl 15) - 2); (8, 100) ]

(* Two starts of one instance score the same revisiting walk at the
   same time, start 0 on the calling domain and start 1 on a spawned
   one, so they race to publish and to read the shared table's
   entries. Each step is a walker move and its cost, then, on about
   half of the steps, the undo and the cost of the expression both
   starts have already scored. Once with the real home slots, once
   with every key sent to one home slot, so the two domains also race
   along one probe chain and overwrite each other's entries there.
   Entries are immutable and published with one store, so every cost
   either domain returned must be [eval_expr]'s bit for bit. *)
let test_instance_table_concurrent () =
  List.iter
    (fun (n, home) ->
      let blocks, affinity, fixed_pos, budget = random_instance ~n 31 in
      let costs =
        LG.walker_costs ?home ~starts:2 ~config:Hidap.Config.default ~blocks ~affinity
          ~fixed_pos ~budget ()
      in
      let steps = 2_000 in
      let ready = Atomic.make 0 in
      let walk start () =
        let rng = Util.Rng.create n in
        let w = LG.walker ~n_blocks:n (Polish.initial_random rng ~n) in
        let scored = ref [] in
        let score () =
          let c = costs.(start) w in
          scored := (Polish.elements (Polish.Walker.expr w), c) :: !scored
        in
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        for _ = 1 to steps do
          Polish.Walker.perturb rng w;
          score ();
          if Util.Rng.bool rng then begin
            Polish.Walker.undo w;
            score ()
          end
        done;
        !scored
      in
      let other = Domain.spawn (walk 1) in
      let mine = walk 0 () in
      let theirs = Domain.join other in
      let full_cost = full_cost ~blocks ~affinity ~fixed_pos ~budget in
      List.iter
        (fun (start, scored) ->
          List.iter
            (fun (elems, c) ->
              if not (beq c (full_cost (Polish.of_elements elems))) then
                Alcotest.failf "n = %d: start %d returned a cost eval_expr does not give" n
                  start)
            scored)
        [ (0, mine); (1, theirs) ])
    [ (5, None); (5, Some (fun _ -> 11)); (7, None); (8, Some (fun _ -> (1 lsl 15) - 3)) ]

(* MD5 of the [sa.term.*] series (the cost terms of each start's
   cheapest evaluation, per plateau) of one [Layout_gen.run] on the
   fixed 7-block instance at the default schedule, names and points
   printed with %h, pinned from the code before instances of up to five
   blocks were solved exactly. A new best served by the instance table
   must restore the cost frame it was computed with; a stale frame
   changes these series. *)
let golden_terms_digest = "13f9a4bb0a3a8bd55edd944dad02a2bc"

let instance_terms jobs =
  let blocks, affinity, fixed_pos, budget = alloc_instance () in
  let config = { Hidap.Config.default with Hidap.Config.jobs } in
  let names = List.map (fun t -> "sa.term." ^ t) LG.term_names in
  let observer (p : Anneal.Sa.plateau) b =
    let x = float_of_int p.Anneal.Sa.total_moves in
    List.iter2 (fun name (_, y) -> Obs.Perf.series name ~x ~y) names (LG.breakdown_terms b)
  in
  Obs.Perf.reset Obs.Perf.global;
  Obs.Perf.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Perf.set_enabled false;
      Obs.Perf.reset Obs.Perf.global)
    (fun () ->
      let r =
        LG.run ~observer ~rng:(Util.Rng.create 3) ~config ~blocks ~affinity ~fixed_pos
          ~budget ()
      in
      let b = Buffer.create 65536 in
      List.iter
        (fun name ->
          Buffer.add_string b (name ^ "\n");
          List.iter
            (fun (x, y) -> Buffer.add_string b (Printf.sprintf "%h %h\n" x y))
            (Obs.Perf.series_points Obs.Perf.global name))
        names;
      (r, Buffer.contents b, Obs.Perf.to_assoc Obs.Perf.global))

let test_instance_table_terms () =
  let base, terms1, counters1 = instance_terms 1 in
  Alcotest.(check string) "jobs = 1 cost-term series digest" golden_terms_digest
    (Digest.to_hex (Digest.string terms1));
  List.iter
    (fun jobs ->
      let r, terms, counters = instance_terms jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs = %d result identical" jobs)
        true (same_result base r);
      Alcotest.(check string)
        (Printf.sprintf "jobs = %d cost-term series identical" jobs)
        terms1 terms;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "jobs = %d perf counters identical" jobs)
        counters1 counters)
    [ 2; 4 ]

(* ---- sa_starts is honored exactly ----------------------------------- *)

(* Every start beyond the first bumps the reheat counter, so the
   counter pins the actual start count: sa_starts = 1 must report zero
   reheats (it used to silently run the reversed chain as a second
   start). *)
let test_sa_starts_honored () =
  List.iter
    (fun n_starts ->
      let blocks, affinity, fixed_pos, budget = random_instance ~n:7 42 in
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

(* ---- the exact search on up to five blocks -------------------------- *)

(* Every normalized expression on [n] operands, found without
   [Polish.iter_normalized]: every sequence of [2n - 1] operators and
   distinct operands that [Polish.is_normalized] accepts, sorted into
   ascending code order. *)
let brute_expressions n =
  let len = (2 * n) - 1 in
  let e = Array.make len (Polish.Operator Polish.H) and used = Array.make n false in
  let out = ref [] in
  let rec fill k =
    if k = len then begin
      if Polish.is_normalized e then out := Polish.of_elements e :: !out
    end
    else begin
      List.iter
        (fun op ->
          e.(k) <- Polish.Operator op;
          fill (k + 1))
        [ Polish.H; Polish.V ];
      for i = 0 to n - 1 do
        if not used.(i) then begin
          used.(i) <- true;
          e.(k) <- Polish.Operand i;
          fill (k + 1);
          used.(i) <- false
        end
      done
    end
  in
  fill 0;
  List.sort (fun (a : Polish.t) (b : Polish.t) -> compare (a :> int array) (b :> int array)) !out

let brute_by_n = Array.init 6 (fun n -> lazy (if n = 0 then [] else brute_expressions n))

(* The brute-force answer: [eval_expr] on every expression, the first
   of the minimum cost kept. *)
let brute_force ~blocks ~affinity ~fixed_pos ~budget =
  List.fold_left
    (fun (best : LG.result option) e ->
      let r = LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos ~budget e in
      match best with Some b when not (r.LG.cost < b.LG.cost) -> best | _ -> Some r)
    None
    (Lazy.force brute_by_n.(Array.length blocks))
  |> Option.get

(* [n] identical soft blocks with no affinity: every operand order of a
   slicing tree lays out the same geometry at the same cost, so most
   expressions tie and only the first-tie rule picks the winner. *)
let tie_instance n =
  let blocks =
    Array.init n (fun i ->
        { Hidap.Block.idx = i; ht_id = i; name = Printf.sprintf "b%d" i;
          curve = Curve.unconstrained; am = 10.0; at = 12.0; macro_count = 0 })
  in
  (blocks, Array.make_matrix n n 0.0, [||], Rect.make ~x:0.0 ~y:0.0 ~w:11.0 ~h:17.0)

let exact_run ?(jobs = 1) ?(sa_starts = 4) ?(rng = Util.Rng.create 9)
    (blocks, affinity, fixed_pos, budget) =
  let config = { Hidap.Config.default with Hidap.Config.jobs; sa_starts } in
  LG.run ~rng ~config ~blocks ~affinity ~fixed_pos ~budget ()

let exact_is_brute_force =
  qtest ~count:3 "exact search = brute force over eval_expr, n = 2..5" seed_arb (fun seed ->
      List.for_all
        (fun ((blocks, affinity, fixed_pos, budget) as inst) ->
          let r = exact_run inst and b = brute_force ~blocks ~affinity ~fixed_pos ~budget in
          same_result r b && r.LG.sa_moves = 0 && r.LG.final_temperature = 0.0)
        (List.init 4 (fun i -> random_instance ~n:(i + 2) (seed + i))
        @ List.init 4 (fun i -> tie_instance (i + 2))))

let test_exact_ties () =
  let ((blocks, affinity, fixed_pos, budget) as inst) = tie_instance 5 in
  let cost e =
    (LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos ~budget e).LG.cost
  in
  let r = exact_run inst in
  let ties = List.filter (fun e -> beq (cost e) r.LG.cost) (Lazy.force brute_by_n.(5)) in
  Alcotest.(check bool) "the minimum is shared" true (List.length ties > 1);
  Alcotest.(check bool) "the first tied expression wins" true
    (same_result r
       (LG.eval_expr ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos ~budget
          (List.hd ties)))

let exact_job_count_neutral =
  qtest ~count:4 "exact search identical at jobs 1/2/4" seed_arb (fun seed ->
      List.for_all
        (fun inst ->
          let base = exact_run ~jobs:1 inst in
          List.for_all (fun jobs -> same_result base (exact_run ~jobs inst)) [ 2; 4 ])
        (tie_instance 4 :: List.init 4 (fun i -> random_instance ~n:(i + 2) (seed + i))))

(* An exact instance draws from the parent stream what the annealing
   starts would: [sa_starts - 2] random initial expressions, then one
   split per start. So the next instance sees the same stream whichever
   search ran. *)
let test_exact_parent_draws () =
  List.iter
    (fun (n, sa_starts) ->
      let rng = Util.Rng.create (n + sa_starts) in
      ignore (exact_run ~sa_starts ~rng (random_instance ~n 5) : LG.result);
      let expected = Util.Rng.create (n + sa_starts) in
      for _ = 1 to sa_starts - 2 do
        ignore (Polish.initial_random expected ~n : Polish.t)
      done;
      for _ = 1 to sa_starts do
        ignore (Util.Rng.split expected : Util.Rng.t)
      done;
      Alcotest.(check int64)
        (Printf.sprintf "n = %d, sa_starts = %d: parent stream after the draws" n sa_starts)
        (Util.Rng.state expected) (Util.Rng.state rng))
    [ (2, 1); (3, 2); (4, 4); (5, 4); (5, 6) ]

(* An exact instance anneals nothing: it counts its 10,800 expressions
   as cost calls, and no SA move or reheat. *)
let test_exact_counters () =
  let reg = Obs.Perf.create () in
  Obs.Perf.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Perf.set_enabled false)
    (fun () ->
      Obs.Perf.with_ambient reg (fun () ->
          ignore (exact_run ~jobs:2 (random_instance ~n:5 3) : LG.result)));
  List.iter
    (fun (what, id, expected) -> Alcotest.(check int) what expected (Obs.Perf.get reg id))
    [ ("cost calls", Obs.Perf.cost_evals, 10_800); ("SA moves", Obs.Perf.sa_moves, 0);
      ("reheats", Obs.Perf.sa_reheats, 0) ]

(* A floorplan budget stops an exact instance like an annealed one: the
   supervisor records the overrun and the instance keeps its fallback
   layout, with no search reported. *)
let test_exact_budget () =
  let r, ledger =
    Guard.Supervisor.with_run ~budgets:[ ("floorplan", 1e-9) ] (fun () ->
        exact_run (random_instance ~n:5 4))
  in
  Alcotest.(check bool) "budget degradation recorded" true
    (Guard.Supervisor.budget_degraded ledger);
  Alcotest.(check int) "no search reported" 0 r.LG.sa_moves

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

(* ---- allocation budget of the annealing move ------------------------ *)

(* 10k perturb + incremental-cost steps on a warm evaluator. Before the
   inner loop was made allocation-free this walk allocated 6.9M minor
   words (691 per step: boxed curve points, float arguments and
   accumulators, copying moves, a boxed RNG state); it now allocates
   about 0.26M — the returned expression copy, the boxed cost and, on
   a miss, the instance-table entry (9 words). The bound, 0.4M, fails
   as soon as boxing per tree node comes back. *)
let test_move_allocation_budget () =
  let blocks, affinity, fixed_pos, budget = alloc_instance () in
  let cost =
    (LG.annealing_costs ~starts:1 ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos
      ~budget).(0)
  in
  let rng = Util.Rng.create 5 in
  let expr = ref (Polish.initial_random rng ~n:(Array.length blocks)) in
  let sum = ref 0.0 in
  let step () =
    let e = Polish.perturb rng !expr in
    sum := !sum +. cost e;
    expr := e
  in
  for _ = 1 to 100 do
    step ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    step ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "walk cost is finite" true (Float.is_finite !sum);
  if words > 400_000.0 then
    Alcotest.failf "10k annealing moves allocated %.0f minor words (bound 400000)" words

(* 10k in-place annealing steps on a warm evaluator, as the annealer
   takes them: a walker move, the cost looked up by the walker's key,
   and about half of the moves undone. The moves, the undo and a table
   hit allocate nothing; what is left is the boxed cost the closure
   returns, the test's own float accumulator and, on an instance-table
   miss, the published entry (9 words): 0.115M minor words, where the
   functional walk above takes 0.26M. The bound, 0.16M, fails as soon
   as a move copies the expression (14 words a step here) or the
   annealer builds a walker per step. *)
let test_walker_allocation_budget () =
  let blocks, affinity, fixed_pos, budget = alloc_instance () in
  let n = Array.length blocks in
  let cost =
    (LG.walker_costs ~starts:1 ~config:Hidap.Config.default ~blocks ~affinity ~fixed_pos
       ~budget ()).(0)
  in
  let rng = Util.Rng.create 5 in
  let w = LG.walker ~n_blocks:n (Polish.initial_random rng ~n) in
  let sum = ref 0.0 in
  let step () =
    Polish.Walker.perturb rng w;
    sum := !sum +. cost w;
    if Util.Rng.int rng 2 = 0 then Polish.Walker.undo w
  in
  for _ = 1 to 100 do
    step ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    step ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "walk cost is finite" true (Float.is_finite !sum);
  if words > 160_000.0 then
    Alcotest.failf "10k in-place walker steps allocated %.0f minor words (bound 160000)" words

(* ---- golden placement ------------------------------------------------ *)

(* MD5 of the c1 placement (the benchmark's seed-1 circuit: generator
   seed moved by 1000, through HNL text) at lambda = 0.5, macros printed
   with %h — the exact floats. Every later refactor of the evaluation
   must keep placements bit for bit. Re-pinned when instances of up to
   five blocks came to be solved exactly: the 5-block top instance's
   cost fell from 824.756 (annealed) to the true minimum 823.487, and
   every instance below it follows from the new rectangles. Runs at the
   ambient job count (placements do not depend on it). *)
let golden_c1_digest = "22d30f7585299552d01e66576f6129ec"

(* MD5s of two more placements, taken the same way from the code before
   the annealer moved its expression in place: fig1 as the serve
   benchmark places it (its generator seed moved by 1000), whose
   instances have 2 and 5 blocks and are solved exactly to the layouts
   the annealer found, and c3, whose instances have 4, 6, 7 and 11
   blocks (the instance table's probe chains on the larger tables, and
   the table-off path above 8 blocks). *)
let golden_fig1_digest = "e8921c30a0cb1326fa31f906b60c73e3"
let golden_c3_digest = "7735a2faeb9972c2387523ef349c522d"

(* A generated design handed over as HNL text. *)
let hnl_flat (params : Circuitgen.Gen.params) =
  let text = Hnl.Printer.to_string (Circuitgen.Gen.generate params) in
  match Hnl.Parser.parse_string text with
  | Ok d -> Netlist.Flat.elaborate d
  | Error _ -> Alcotest.failf "generated %s does not parse" params.Circuitgen.Gen.name

(* A suite circuit as the benchmark's seed 1 sees it: generator seed
   moved by 1000, handed over as HNL text. *)
let seed1_flat name =
  let c = Option.get (Circuitgen.Suite.find name) in
  hnl_flat { c.Circuitgen.Suite.params with seed = c.Circuitgen.Suite.params.seed + 1000 }

let golden_config =
  { Hidap.Config.default with Hidap.Config.seed = 1; lambda = 0.5; lambda_sweep = [ 0.5 ] }

(* The golden c1 placement, shared by the placement and evaluation
   digests. *)
let golden_c1 =
  lazy
    (let flat = seed1_flat "c1" in
     let die = Hidap.die_for flat ~config:golden_config in
     (flat, die, Hidap.place ~config:golden_config ~die flat))

let placement_digest (r : Hidap.result) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (p : Hidap.macro_placement) ->
      let q = p.Hidap.rect in
      Buffer.add_string b
        (Printf.sprintf "%d %h %h %h %h %s\n" p.Hidap.fid q.Rect.x q.Rect.y q.Rect.w q.Rect.h
           (Geom.Orientation.to_string p.Hidap.orient)))
    r.Hidap.placements;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_c1_placement () =
  let _, _, r = Lazy.force golden_c1 in
  Alcotest.(check int) "32 macros" 32 (List.length r.Hidap.placements);
  Alcotest.(check string) "c1 placement digest" golden_c1_digest (placement_digest r)

let test_golden_placement name flat digest () =
  let flat = flat () in
  let die = Hidap.die_for flat ~config:golden_config in
  let r = Hidap.place ~config:golden_config ~die flat in
  Alcotest.(check string) (name ^ " placement digest") digest (placement_digest r)

(* [Circuitgen.Suite.fig1_design]'s parameters with the seed moved by
   1000, as the serve benchmark generates fig1. *)
let seed1_fig1 () =
  hnl_flat
    { Circuitgen.Gen.name = "fig1"; seed = 16 + 1000; n_subsystems = 2;
      units_per_subsystem = 2; n_macros = 16; bus_width = 12; pipe_stages = 1;
      target_cells = 1_500; macro_w = 55.0; macro_h = 40.0; port_arrays = 2;
      cross_links = 0; cell_area = 8.0 }

(* MD5 of the evaluation of three macro placements: c1 and c5 wall-packed
   by IndEDA and the golden c1 placement above. Every standard-cell
   position [Cellplace.run] returns is printed with %h, then the
   measured wl_um, grc_pct, wns_pct and tns. A one-ulp change anywhere
   in cell placement, HPWL, congestion or timing fails it, where the QoR
   baselines tolerate percents. Re-pinned with the golden c1 placement
   (the IndEDA halves are unchanged). *)
let golden_eval_digest = "9a7c44bca9e2d7d47d9d4d24073b894f"

let test_golden_evaluation () =
  let b = Buffer.create (1 lsl 20) in
  let measure ~flat ~die macros_of =
    let gseq = Seqgraph.build ~bit_threshold:golden_config.Hidap.Config.bit_threshold flat in
    let ports = Hidap.Port_plan.make gseq ~die in
    let m, cp = Evalflow.measure ~flat ~gseq ~ports ~die ~macros:(macros_of gseq) in
    Array.iter
      (fun (p : Point.t) -> Buffer.add_string b (Printf.sprintf "%h %h\n" p.Point.x p.Point.y))
      cp.Cellplace.positions;
    Buffer.add_string b
      (Printf.sprintf "%h %h %h %h\n" m.Evalflow.wl_um m.Evalflow.grc_pct m.Evalflow.wns_pct
         m.Evalflow.tns)
  in
  List.iter
    (fun name ->
      let flat = seed1_flat name in
      let die = Hidap.die_for flat ~config:golden_config in
      measure ~flat ~die (fun gseq -> Baselines.Indeda.place ~flat ~gseq ~die ()))
    [ "c1"; "c5" ];
  let flat, die, r = Lazy.force golden_c1 in
  measure ~flat ~die (fun _ -> r.Hidap.placements);
  Alcotest.(check string) "evaluation digest" golden_eval_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [ ( "incremental",
      [ inc_matches_full_random_walk; inc_matches_full_per_move;
        inc_handles_reverts; run_cost_is_annealer_best;
        table_matches_eval_on_revisits;
        Alcotest.test_case "instance table slot collision stays exact" `Quick
          test_instance_table_collision;
        Alcotest.test_case "instance table probe chain and overwrite stay exact" `Quick
          test_instance_table_probing;
        Alcotest.test_case "instance table shared by two domains stays exact" `Quick
          test_instance_table_concurrent;
        Alcotest.test_case "instance table keeps cost terms at jobs 1/2/4" `Slow
          test_instance_table_terms;
        Alcotest.test_case "sa_starts honored exactly" `Quick
          test_sa_starts_honored;
        exact_is_brute_force;
        Alcotest.test_case "exact search breaks ties to the first expression" `Quick
          test_exact_ties;
        exact_job_count_neutral;
        Alcotest.test_case "exact search makes the annealer's parent draws" `Quick
          test_exact_parent_draws;
        Alcotest.test_case "exact search counts cost calls, no SA moves" `Quick
          test_exact_counters;
        Alcotest.test_case "floorplan budget stops an exact instance" `Quick
          test_exact_budget;
        Alcotest.test_case "asymmetric affinity rejected" `Quick
          test_asymmetric_affinity_rejected;
        Alcotest.test_case "annealing move allocation budget" `Quick
          test_move_allocation_budget;
        Alcotest.test_case "in-place walker step allocation budget" `Quick
          test_walker_allocation_budget;
        Alcotest.test_case "golden c1 placement digest" `Quick
          test_golden_c1_placement;
        Alcotest.test_case "golden fig1 placement digest" `Quick
          (test_golden_placement "fig1" seed1_fig1 golden_fig1_digest);
        Alcotest.test_case "golden c3 placement digest" `Quick
          (test_golden_placement "c3" (fun () -> seed1_flat "c3") golden_c3_digest);
        Alcotest.test_case "golden evaluation digest" `Quick
          test_golden_evaluation ] ) ]
