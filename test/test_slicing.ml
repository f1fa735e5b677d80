(* Tests for Polish expressions and the top-down area-budgeting layout
   (paper §IV-E, Fig 8). *)

module Polish = Slicing.Polish
module Layout = Slicing.Layout
module Rect = Geom.Rect
module Curve = Shape.Curve

let check_float = Alcotest.(check (float 1e-6))

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ---- Polish ------------------------------------------------------- *)

let test_initial_normalized () =
  for n = 1 to 12 do
    let e = Polish.initial ~n in
    Alcotest.(check bool) "normalized" true (Polish.is_normalized (Polish.elements e));
    Alcotest.(check int) "operand count" n (Polish.operand_count e);
    Alcotest.(check int) "length" ((2 * n) - 1) (Polish.length e)
  done

let test_initial_random_normalized () =
  let rng = Util.Rng.create 3 in
  for n = 1 to 12 do
    let e = Polish.initial_random rng ~n in
    Alcotest.(check bool) "normalized" true (Polish.is_normalized (Polish.elements e));
    (* all operands present exactly once *)
    let ops =
      Array.to_list (Polish.elements e)
      |> List.filter_map (function Polish.Operand i -> Some i | Polish.Operator _ -> None)
      |> List.sort compare
    in
    Alcotest.(check (list int)) "operands 0..n-1" (List.init n (fun i -> i)) ops
  done

let test_of_elements_validation () =
  (* operator first violates balloting *)
  (match Polish.of_elements [| Polish.Operator Polish.V; Polish.Operand 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection");
  (* two equal adjacent operators (the skewed duplicate of a slicing
     tree) must be rejected *)
  (match
     Polish.of_elements
       [| Polish.Operand 0; Polish.Operand 1; Polish.Operand 2;
          Polish.Operator Polish.V; Polish.Operator Polish.V |]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of VV chain");
  (* same shape with alternating operators is fine *)
  match
    Polish.of_elements
      [| Polish.Operand 0; Polish.Operand 1; Polish.Operand 2;
         Polish.Operator Polish.V; Polish.Operator Polish.H |]
  with
  | exception Invalid_argument _ -> Alcotest.fail "alternating chain should be accepted"
  | _ -> ()

let test_is_normalized_rejects_skew () =
  let bad =
    [| Polish.Operand 0; Polish.Operand 1; Polish.Operator Polish.V;
       Polish.Operand 2; Polish.Operator Polish.V |]
  in
  Alcotest.(check bool) "chain with equal adjacent ops rejected" false
    (Polish.is_normalized
       [| Polish.Operand 0; Polish.Operand 1; Polish.Operand 2;
          Polish.Operator Polish.V; Polish.Operator Polish.V |]);
  Alcotest.(check bool) "alternating accepted" true (Polish.is_normalized bad)

let perturb_preserves_normalization =
  qtest "perturb preserves normalization and operands"
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let e = ref (Polish.initial ~n) in
      let ok = ref true in
      for _ = 1 to 50 do
        e := Polish.perturb rng !e;
        if not (Polish.is_normalized (Polish.elements !e)) then ok := false;
        if Polish.operand_count !e <> n then ok := false
      done;
      !ok)

let test_perturb_single_operand () =
  let rng = Util.Rng.create 1 in
  let e = Polish.initial ~n:1 in
  let e' = Polish.perturb rng e in
  Alcotest.(check int) "unchanged" 1 (Polish.operand_count e')

(* ---- Layout ------------------------------------------------------- *)

let soft_leaves ats =
  Array.of_list
    (List.mapi
       (fun i at ->
         { Layout.lid = i; curve = Curve.unconstrained; area_min = at; area_target = at })
       ats)

let budget = Rect.make ~x:0.0 ~y:0.0 ~w:3.0 ~h:3.0

let test_fig8_regression () =
  (* the paper's Fig 8: exact proportional rectangles *)
  let leaves = soft_leaves [ 1.0; 2.0; 1.5; 2.0; 2.5 ] in
  let expr =
    Polish.of_elements
      [| Polish.Operand 0; Polish.Operand 1; Polish.Operator Polish.V;
         Polish.Operand 2; Polish.Operator Polish.H; Polish.Operand 3;
         Polish.Operand 4; Polish.Operator Polish.V; Polish.Operator Polish.H |]
  in
  let p = Layout.evaluate expr ~leaves ~budget in
  let rect lid = List.assoc lid p.Layout.rects in
  List.iter
    (fun (lid, at) -> check_float (Printf.sprintf "leaf %d takes its at" lid) at (Rect.area (rect lid)))
    [ (0, 1.0); (1, 2.0); (2, 1.5); (3, 2.0); (4, 2.5) ];
  check_float "no at shift" 0.0 p.Layout.viol.Layout.at_shift;
  check_float "no am deficit" 0.0 p.Layout.viol.Layout.am_deficit;
  check_float "no macro deficit" 0.0 p.Layout.viol.Layout.macro_deficit

let test_two_leaf_cuts () =
  let leaves = soft_leaves [ 1.0; 2.0 ] in
  let v =
    Polish.of_elements [| Polish.Operand 0; Polish.Operand 1; Polish.Operator Polish.V |]
  in
  let p = Layout.evaluate v ~leaves ~budget in
  let r0 = List.assoc 0 p.Layout.rects and r1 = List.assoc 1 p.Layout.rects in
  check_float "V cut: left third" 1.0 r0.Rect.w;
  check_float "V cut: full height" 3.0 r0.Rect.h;
  check_float "right starts after left" 1.0 r1.Rect.x;
  let h =
    Polish.of_elements [| Polish.Operand 0; Polish.Operand 1; Polish.Operator Polish.H |]
  in
  let p = Layout.evaluate h ~leaves ~budget in
  let r0 = List.assoc 0 p.Layout.rects in
  check_float "H cut: bottom third" 1.0 r0.Rect.h;
  check_float "H cut: full width" 3.0 r0.Rect.w

let random_expr rng n =
  let e = ref (Polish.initial_random rng ~n) in
  for _ = 1 to 20 do
    e := Polish.perturb rng !e
  done;
  !e

(* ---- M1/M2/M3 move laws (Wong–Liu; paper §IV-E) -------------------- *)

let operand_list e =
  Array.to_list (Polish.elements e)
  |> List.filter_map (function Polish.Operand i -> Some i | Polish.Operator _ -> None)

let move_preserves_invariants name move =
  qtest
    (Printf.sprintf "%s: None or normalized with the same operand multiset" name)
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let e = random_expr rng n in
      match move rng e with
      | None -> true
      | Some e' ->
        Polish.is_normalized (Polish.elements e')
        && Polish.operand_count e' = n
        && List.sort compare (operand_list e') = List.sort compare (operand_list e))

let m1_preserves = move_preserves_invariants "M1" Polish.move_m1
let m2_preserves = move_preserves_invariants "M2" Polish.move_m2
let m3_preserves = move_preserves_invariants "M3" Polish.move_m3

(* ---- move oracle ---------------------------------------------------- *)

(* The list/copy formulation of M1/M2/M3 and [perturb] that the
   scanning, copy-light moves replaced, kept as their reference: it
   builds the candidate arrays the moves pick from, copies the
   expression on every M3 attempt and checks normalization on the copy. *)
module Ref_moves = struct
  open Polish

  let flip = function H -> V | V -> H

  let is_operand = function Operand _ -> true | Operator _ -> false

  let is_normalized e =
    let n = Array.length e in
    if n = 0 then false
    else begin
      let ok = ref true in
      let operands = ref 0 and operators = ref 0 in
      for i = 0 to n - 1 do
        (match e.(i) with
        | Operand _ -> incr operands
        | Operator o ->
          incr operators;
          if i > 0 then
            (match e.(i - 1) with Operator o' when o' = o -> ok := false | _ -> ()));
        if !operators >= !operands then ok := false
      done;
      !ok && !operands = !operators + 1
    end

  let move_m1 rng t =
    let n = Array.fold_left (fun acc e -> if is_operand e then acc + 1 else acc) 0 t in
    if n < 2 then None
    else begin
      let positions = Array.make n 0 in
      let k = ref 0 in
      Array.iteri
        (fun i e ->
          if is_operand e then begin
            positions.(!k) <- i;
            incr k
          end)
        t;
      let i = Util.Rng.int rng (n - 1) in
      let p = positions.(i) and q = positions.(i + 1) in
      let e = Array.copy t in
      let tmp = e.(p) in
      e.(p) <- e.(q);
      e.(q) <- tmp;
      Some e
    end

  let move_m2 rng t =
    let len = Array.length t in
    let chain_starts = ref [] in
    for i = 0 to len - 1 do
      match t.(i) with
      | Operator _ when i = 0 || is_operand t.(i - 1) -> chain_starts := i :: !chain_starts
      | Operator _ | Operand _ -> ()
    done;
    match !chain_starts with
    | [] -> None
    | starts ->
      let starts = Array.of_list starts in
      let s = Util.Rng.pick rng starts in
      let e = Array.copy t in
      let i = ref s in
      while !i < len && match e.(!i) with Operator _ -> true | Operand _ -> false do
        (match e.(!i) with
        | Operator o -> e.(!i) <- Operator (flip o)
        | Operand _ -> assert false);
        incr i
      done;
      Some e

  let move_m3 rng t =
    let len = Array.length t in
    if len < 3 then None
    else begin
      let attempt () =
        let i = Util.Rng.int rng (len - 1) in
        let a = t.(i) and b = t.(i + 1) in
        let swappable =
          match (a, b) with
          | Operand _, Operator _ | Operator _, Operand _ -> true
          | Operand _, Operand _ | Operator _, Operator _ -> false
        in
        if not swappable then None
        else begin
          let e = Array.copy t in
          e.(i) <- b;
          e.(i + 1) <- a;
          if is_normalized e then Some e else None
        end
      in
      let rec try_n k =
        if k = 0 then None else match attempt () with Some e -> Some e | None -> try_n (k - 1)
      in
      try_n 16
    end

  let perturb rng t =
    let moves = [| move_m1; move_m2; move_m3 |] in
    let order = [| 0; 1; 2 |] in
    Util.Rng.shuffle rng order;
    let rec go i =
      if i >= Array.length order then t
      else match moves.(order.(i)) rng t with Some e -> e | None -> go (i + 1)
    in
    go 0
end

(* Random normalized expressions with n = 1..17 operands: a random
   operand order on the alternating chain, walked by reference moves. *)
let random_normalized rng =
  let n = 1 + Util.Rng.int rng 17 in
  let e = ref (Polish.elements (Polish.initial_random rng ~n)) in
  for _ = 1 to Util.Rng.int rng 40 do
    e := Ref_moves.perturb rng !e
  done;
  Polish.of_elements !e

let moves_match_reference =
  qtest ~count:300 "M1/M2/M3/perturb equal the reference moves, draw for draw"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let t = random_normalized rng in
        let elems = Polish.elements t in
        let same move reference =
          let r1 = Util.Rng.copy rng and r2 = Util.Rng.copy rng in
          let got = move r1 t and want = reference r2 elems in
          got = want && Util.Rng.state r1 = Util.Rng.state r2
        in
        let opt m rng t = Option.map Polish.elements (m rng t) in
        ok :=
          !ok
          && same (opt Polish.move_m1) Ref_moves.move_m1
          && same (opt Polish.move_m2) Ref_moves.move_m2
          && same (opt Polish.move_m3) Ref_moves.move_m3
          && same (fun rng t -> Polish.elements (Polish.perturb rng t)) Ref_moves.perturb
          && Polish.is_normalized elems = Ref_moves.is_normalized elems;
        (* normalization of an arbitrary adjacent swap, legal or not *)
        let len = Array.length elems in
        if len >= 2 then begin
          let i = Util.Rng.int rng (len - 1) in
          let e = Array.copy elems in
          e.(i) <- elems.(i + 1);
          e.(i + 1) <- elems.(i);
          ok := !ok && Polish.is_normalized e = Ref_moves.is_normalized e
        end
      done;
      !ok)

(* The int-coded expression against the boxed reference along whole
   annealing-like walks: for n = 1..17 and several seeds, every step
   applies one of M1/M2/M3/perturb to the production expression and the
   same move to the reference [elt array], from copies of one RNG, and
   the walk then keeps the move or drops it (a rejected move). After
   every move the elements and the RNG states must be identical, [code]
   must agree with [get], and [of_elements]/[elements] must
   round-trip. *)
let code_of = function
  | Polish.Operator Polish.H -> 0
  | Polish.Operator Polish.V -> 1
  | Polish.Operand i -> i + 2

let test_walks_match_reference () =
  for n = 1 to 17 do
    List.iter
      (fun seed ->
        let rng = ref (Util.Rng.create ((1000 * seed) + n)) in
        let t = ref (Polish.initial_random !rng ~n) in
        let r = ref (Polish.elements !t) in
        for step = 1 to 150 do
          let fail what = Alcotest.failf "n = %d, seed %d, step %d: %s" n seed step what in
          let kind = Util.Rng.int !rng 4 in
          let r1 = Util.Rng.copy !rng and r2 = Util.Rng.copy !rng in
          let got, want =
            let opt m reference =
              (Option.map Polish.elements (m r1 !t), reference r2 !r)
            in
            match kind with
            | 0 -> opt Polish.move_m1 Ref_moves.move_m1
            | 1 -> opt Polish.move_m2 Ref_moves.move_m2
            | 2 -> opt Polish.move_m3 Ref_moves.move_m3
            | _ ->
              (Some (Polish.elements (Polish.perturb r1 !t)), Some (Ref_moves.perturb r2 !r))
          in
          if got <> want then fail "elements differ from the reference";
          if Util.Rng.state r1 <> Util.Rng.state r2 then fail "RNG state differs";
          rng := r1;
          match got with
          | None -> ()
          | Some e ->
            let cand = Polish.of_elements e in
            if Polish.elements cand <> e then fail "of_elements/elements round trip";
            for i = 0 to Polish.length cand - 1 do
              if Polish.code cand i <> code_of (Polish.get cand i) then
                fail (Printf.sprintf "code and get disagree at %d" i)
            done;
            (* keep the move about two times in three *)
            if Util.Rng.int !rng 3 > 0 then begin
              t := cand;
              r := e
            end
        done)
      [ 1; 2; 3; 4; 5 ]
  done;
  match Polish.of_elements [| Polish.Operand (-1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a negative operand has no code and must be rejected"

(* The in-place walker against the boxed reference: for n = 1..17 and
   several seeds, one walker and one reference [elt array] take the
   same moves from two equal RNGs, and the walk keeps each move or
   undoes it (a rejected annealing move), sometimes undoing twice (the
   second undo must do nothing). After every move and every undo the
   codes and the RNG states must be equal, the rank/position maps must
   agree with a rescan, and the walker's incremental key must equal the
   key packed from scratch by a fresh walker ([Layout_gen.walker], the
   annealer's only packing), which exists exactly for n <= 8. *)
let test_walker_matches_reference () =
  for n = 1 to 17 do
    List.iter
      (fun seed ->
        let rng = Util.Rng.create ((7919 * seed) + n) in
        let w = Hidap.Layout_gen.walker ~n_blocks:n (Polish.initial_random rng ~n) in
        let r = ref (Polish.elements (Polish.Walker.expr w)) in
        let rw = Util.Rng.copy rng and rr = Util.Rng.copy rng in
        let check step what =
          let fail msg =
            Alcotest.failf "n = %d, seed %d, step %d, after %s: %s" n seed step what msg
          in
          let e = Polish.Walker.expr w in
          if Polish.elements e <> !r then fail "codes differ from the reference";
          if Util.Rng.state rw <> Util.Rng.state rr then fail "RNG state differs";
          let rank = ref 0 in
          for i = 0 to Polish.length e - 1 do
            if Polish.Walker.rank w i <> !rank then fail (Printf.sprintf "rank at %d" i);
            if Polish.code e i >= 2 then begin
              if Polish.Walker.position w !rank <> i then
                fail (Printf.sprintf "position of rank %d" !rank);
              incr rank
            end
          done;
          let fresh =
            Polish.Walker.key (Hidap.Layout_gen.walker ~n_blocks:n (Polish.of_elements !r))
          in
          if Polish.Walker.key w <> fresh then
            fail (Printf.sprintf "key %d, packed from scratch %d" (Polish.Walker.key w) fresh);
          if (fresh >= 0) <> (n <= 8) then fail "key presence"
        in
        check 0 "create";
        for step = 1 to 200 do
          let before = !r in
          Polish.Walker.perturb rw w;
          r := Ref_moves.perturb rr !r;
          check step "move";
          match Util.Rng.int rng 6 with
          | 0 | 1 ->
            Polish.Walker.undo w;
            r := before;
            check step "undo"
          | 2 ->
            Polish.Walker.undo w;
            Polish.Walker.undo w;
            r := before;
            check step "double undo"
          | _ -> ()
        done)
      [ 1; 2; 3; 4; 5; 6 ]
  done

(* M1 swaps adjacent operands: every operator stays at its position with
   its value. *)
let m1_touches_operands_only =
  qtest "M1 leaves the operator skeleton untouched"
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let e = random_expr rng n in
      match Polish.move_m1 rng e with
      | None -> true
      | Some e' ->
        Array.for_all2
          (fun a b ->
            match (a, b) with
            | Polish.Operator x, Polish.Operator y -> x = y
            | Polish.Operand _, Polish.Operand _ -> true
            | _ -> false)
          (Polish.elements e) (Polish.elements e'))

(* M2 complements an operator chain: the operand subsequence is unchanged
   in order, and every element keeps its operand/operator kind. *)
let m2_touches_operators_only =
  qtest "M2 leaves the operand order untouched"
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let e = random_expr rng n in
      match Polish.move_m2 rng e with
      | None -> true
      | Some e' ->
        operand_list e' = operand_list e
        && Array.for_all2
             (fun a b ->
               match (a, b) with
               | Polish.Operator _, Polish.Operator _ -> true
               | Polish.Operand i, Polish.Operand j -> i = j
               | _ -> false)
             (Polish.elements e) (Polish.elements e'))

let layout_partitions_budget =
  qtest "layout partitions the budget exactly with no overlap"
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let ats = List.init n (fun i -> 1.0 +. float_of_int ((seed + i) mod 5)) in
      let leaves = soft_leaves ats in
      let expr = random_expr rng n in
      let p = Layout.evaluate expr ~leaves ~budget in
      let rects = List.map snd p.Layout.rects in
      let total = List.fold_left (fun acc r -> acc +. Rect.area r) 0.0 rects in
      let no_overlap =
        let rec check = function
          | [] -> true
          | r :: rest -> List.for_all (fun r' -> not (Rect.overlaps r r')) rest && check rest
        in
        check rects
      in
      let inside = List.for_all (fun r -> Rect.contains_rect ~outer:budget ~inner:r) rects in
      abs_float (total -. Rect.area budget) < 1e-6 && no_overlap && inside)

let test_macro_leaf_gets_space () =
  (* one macro leaf needing 2x2 next to a soft leaf; budget is 3x3 so the
     macro child must be widened beyond its proportional share *)
  let leaves =
    [| { Layout.lid = 0; curve = Curve.of_macro ~w:2.0 ~h:2.0 (); area_min = 4.0;
         area_target = 4.0 };
       { Layout.lid = 1; curve = Curve.unconstrained; area_min = 20.0; area_target = 20.0 } |]
  in
  let expr =
    Polish.of_elements [| Polish.Operand 0; Polish.Operand 1; Polish.Operator Polish.V |]
  in
  let p = Layout.evaluate expr ~leaves ~budget in
  let r0 = List.assoc 0 p.Layout.rects in
  Alcotest.(check bool) "macro child wide enough" true (r0.Rect.w >= 2.0 -. 1e-9);
  check_float "macro fits: no macro deficit" 0.0 p.Layout.viol.Layout.macro_deficit;
  Alcotest.(check bool) "the shift is reported" true (p.Layout.viol.Layout.at_shift > 0.0)

let test_infeasible_macro_reports_deficit () =
  (* macro bigger than the entire budget *)
  let leaves =
    [| { Layout.lid = 0; curve = Curve.of_macro ~w:5.0 ~h:4.0 (); area_min = 20.0;
         area_target = 20.0 } |]
  in
  let expr = Polish.of_elements [| Polish.Operand 0 |] in
  let p = Layout.evaluate expr ~leaves ~budget in
  Alcotest.(check bool) "macro deficit reported" true
    (p.Layout.viol.Layout.macro_deficit > 0.0)

let test_penalty_weights () =
  let v = { Layout.at_shift = 1.0; am_deficit = 2.0; macro_deficit = 3.0 } in
  check_float "weighted sum" (1.0 +. 4.0 +. 15.0)
    (Layout.penalty v ~at_w:1.0 ~am_w:2.0 ~macro_w:5.0)

let test_tree_curve () =
  let leaves =
    [| { Layout.lid = 0; curve = Curve.of_macro ~w:2.0 ~h:1.0 (); area_min = 2.0;
         area_target = 2.0 };
       { Layout.lid = 1; curve = Curve.of_macro ~w:2.0 ~h:1.0 (); area_min = 2.0;
         area_target = 2.0 } |]
  in
  let v =
    Polish.of_elements [| Polish.Operand 0; Polish.Operand 1; Polish.Operator Polish.V |]
  in
  let c = Layout.tree_curve v ~leaves in
  (* side-by-side: e.g. 4x1, 2x2, ... min area 4 *)
  check_float "composed min area" 4.0 (Curve.min_area c);
  Alcotest.(check bool) "4x1 feasible" true (Curve.fits c ~w:4.0 ~h:1.0);
  Alcotest.(check bool) "2x2 feasible" true (Curve.fits c ~w:2.0 ~h:2.0)

let diag_code = function
  | Guard.Diag.Fail d -> Some d.Guard.Diag.code
  | _ -> None

let test_malformed_expression () =
  let leaves = soft_leaves [ 1.0 ] in
  match
    Layout.evaluate
      (Polish.of_elements [| Polish.Operand 5 |])
      ~leaves ~budget
  with
  | exception (Guard.Diag.Fail _ as e) ->
    Alcotest.(check (option string)) "structured code" (Some "bad-leaf-table")
      (diag_code e)
  | _ -> Alcotest.fail "expected missing-leaf diagnostic"

(* The lid -> leaf table validates its input: lids must be exactly
   0..n-1, so a duplicate or out-of-range lid is a structured
   diagnostic, not a silent mis-assignment or a bare invalid_arg. *)
let test_leaf_table_validation () =
  let leaf lid =
    { Layout.lid; curve = Shape.Curve.unconstrained; area_min = 1.0;
      area_target = 1.0 }
  in
  (match Layout.leaf_table [| leaf 0; leaf 1 |] with
  | table ->
    Alcotest.(check int) "slot holds its lid" 1 table.(1).Layout.lid);
  (match Layout.leaf_table [| leaf 0; leaf 0 |] with
  | exception (Guard.Diag.Fail _ as e) ->
    Alcotest.(check (option string)) "duplicate lid" (Some "bad-leaf-table")
      (diag_code e)
  | _ -> Alcotest.fail "duplicate lid accepted");
  (match Layout.leaf_table [| leaf 0; leaf 2 |] with
  | exception (Guard.Diag.Fail _ as e) ->
    Alcotest.(check (option string)) "out-of-range lid" (Some "bad-leaf-table")
      (diag_code e)
  | _ -> Alcotest.fail "out-of-range lid accepted");
  match Layout.leaf_table [||] with
  | table -> Alcotest.(check int) "empty table" 0 (Array.length table)

let layout_deterministic =
  qtest "evaluation is deterministic" QCheck.small_int (fun seed ->
      let rng = Util.Rng.create seed in
      let leaves = soft_leaves [ 1.0; 2.0; 3.0; 1.0 ] in
      let expr = random_expr rng 4 in
      let p1 = Layout.evaluate expr ~leaves ~budget in
      let p2 = Layout.evaluate expr ~leaves ~budget in
      p1.Layout.rects = p2.Layout.rects)

let suite =
  [ ( "slicing.polish",
      [ Alcotest.test_case "initial normalized" `Quick test_initial_normalized;
        Alcotest.test_case "random initial" `Quick test_initial_random_normalized;
        Alcotest.test_case "of_elements validation" `Quick test_of_elements_validation;
        Alcotest.test_case "normalization check" `Quick test_is_normalized_rejects_skew;
        Alcotest.test_case "single operand perturb" `Quick test_perturb_single_operand;
        perturb_preserves_normalization; m1_preserves; m2_preserves; m3_preserves;
        m1_touches_operands_only; m2_touches_operators_only; moves_match_reference;
        Alcotest.test_case "walks match the boxed reference, n = 1..17" `Quick
          test_walks_match_reference;
        Alcotest.test_case "walker moves and undoes like the boxed reference, n = 1..17"
          `Quick test_walker_matches_reference ] );
    ( "slicing.layout",
      [ Alcotest.test_case "fig8 regression" `Quick test_fig8_regression;
        Alcotest.test_case "two-leaf cuts" `Quick test_two_leaf_cuts;
        Alcotest.test_case "macro leaf gets space" `Quick test_macro_leaf_gets_space;
        Alcotest.test_case "infeasible macro" `Quick test_infeasible_macro_reports_deficit;
        Alcotest.test_case "penalty weights" `Quick test_penalty_weights;
        Alcotest.test_case "tree curve" `Quick test_tree_curve;
        Alcotest.test_case "malformed expression" `Quick test_malformed_expression;
        Alcotest.test_case "leaf table validation" `Quick test_leaf_table_validation;
        layout_partitions_budget; layout_deterministic ] ) ]
