(* Tests for shape curves (paper §II-D / §IV-A). *)

module Curve = Shape.Curve

let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let points_arb =
  QCheck.(
    list_of_size (Gen.int_range 1 12)
      (pair (float_range 1.0 50.0) (float_range 1.0 50.0)))

let test_of_macro () =
  let c = Curve.of_macro ~w:6.0 ~h:4.0 () in
  Alcotest.(check int) "two orientations" 2 (Curve.size c);
  Alcotest.(check bool) "fits footprint" true (Curve.fits c ~w:6.0 ~h:4.0);
  Alcotest.(check bool) "fits rotated" true (Curve.fits c ~w:4.0 ~h:6.0);
  Alcotest.(check bool) "too small" false (Curve.fits c ~w:3.9 ~h:6.0);
  let sq = Curve.of_macro ~w:5.0 ~h:5.0 () in
  Alcotest.(check int) "square has one point" 1 (Curve.size sq);
  let norot = Curve.of_macro ~w:6.0 ~h:4.0 ~rotate:false () in
  Alcotest.(check int) "no rotation point" 1 (Curve.size norot)

let test_pareto_prunes_dominated () =
  let c = Curve.of_points [ (2.0, 2.0); (3.0, 3.0); (2.0, 3.0); (1.0, 4.0) ] in
  (* (3,3) and (2,3) are dominated by (2,2) *)
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "staircase"
    [ (1.0, 4.0); (2.0, 2.0) ] (Curve.points c)

let test_of_points_invalid () =
  Alcotest.(check bool) "rejects empty" true
    (match Curve.of_points [] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "rejects non-positive" true
    (match Curve.of_points [ (0.0, 3.0) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_unconstrained () =
  let u = Curve.unconstrained in
  Alcotest.(check bool) "is unconstrained" true (Curve.is_unconstrained u);
  Alcotest.(check bool) "fits anything" true (Curve.fits u ~w:0.001 ~h:0.001);
  check_float "min area zero" 0.0 (Curve.min_area u);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "no min point" None
    (Curve.min_area_point u);
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "no points" [] (Curve.points u)

let test_min_width () =
  let c = Curve.of_points [ (2.0, 6.0); (4.0, 3.0); (8.0, 1.0) ] in
  let min_extent ~width cross =
    let q = [| cross; 0.0 |] in
    if Curve.min_extent (c :> float array) (Curve.size c) ~width q ~cross:0 ~out:1 then
      Some q.(1)
    else None
  in
  Alcotest.(check (option (float 1e-9))) "min width at h=3" (Some 4.0) (min_extent ~width:true 3.0);
  Alcotest.(check (option (float 1e-9))) "min width below all" None (min_extent ~width:true 0.5);
  Alcotest.(check (option (float 1e-9))) "min height at w=4" (Some 3.0) (min_extent ~width:false 4.0);
  Alcotest.(check (option (float 1e-9))) "min height below all" None (min_extent ~width:false 1.0)

let test_compose_dims () =
  let a = Curve.of_points [ (2.0, 3.0) ] and b = Curve.of_points [ (4.0, 1.0) ] in
  (match Curve.points (Curve.compose_h a b) with
  | [ (w, h) ] ->
    check_float "widths add" 6.0 w;
    check_float "heights max" 3.0 h
  | _ -> Alcotest.fail "expected one point");
  match Curve.points (Curve.compose_v a b) with
  | [ (w, h) ] ->
    check_float "widths max" 4.0 w;
    check_float "heights add" 4.0 h
  | _ -> Alcotest.fail "expected one point"

let test_compose_with_unconstrained () =
  let a = Curve.of_points [ (2.0, 3.0) ] in
  Alcotest.(check bool) "h compose" true
    (Curve.points (Curve.compose_h a Curve.unconstrained) = Curve.points a);
  Alcotest.(check bool) "v compose" true
    (Curve.points (Curve.compose_v Curve.unconstrained a) = Curve.points a);
  Alcotest.(check bool) "both unconstrained" true
    (Curve.is_unconstrained (Curve.compose_best Curve.unconstrained Curve.unconstrained))

let test_prune () =
  let pts = List.init 20 (fun i -> (float_of_int (i + 1), float_of_int (21 - i))) in
  let c = Curve.of_points pts in
  let p = Curve.prune ~max_points:5 c in
  Alcotest.(check int) "pruned size" 5 (Curve.size p);
  (* extremes kept *)
  let ppts = Curve.points p in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "first kept" (1.0, 21.0) (List.hd ppts);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "last kept" (20.0, 2.0)
    (List.nth ppts (List.length ppts - 1))

let staircase_invariant =
  qtest "points form a strict staircase" points_arb (fun pts ->
      match Curve.of_points pts with
      | exception Invalid_argument _ -> true
      | c ->
        let rec check = function
          | (w1, h1) :: ((w2, h2) :: _ as rest) -> w1 < w2 && h1 > h2 && check rest
          | _ -> true
        in
        check (Curve.points c))

let min_area_point_fits =
  qtest "curve fits its min-area point" points_arb (fun pts ->
      match Curve.of_points pts with
      | exception Invalid_argument _ -> true
      | c ->
        (match Curve.min_area_point c with
        | Some (w, h) -> Curve.fits c ~w ~h
        | None -> false))

let compose_min_area_superadditive =
  qtest "composition min area >= sum of parts"
    QCheck.(pair points_arb points_arb)
    (fun (pa, pb) ->
      match (Curve.of_points pa, Curve.of_points pb) with
      | exception Invalid_argument _ -> true
      | a, b ->
        let sum = Curve.min_area a +. Curve.min_area b in
        Curve.min_area (Curve.compose_h a b) >= sum -. 1e-6
        && Curve.min_area (Curve.compose_v a b) >= sum -. 1e-6
        && Curve.min_area (Curve.compose_best a b) >= sum -. 1e-6)

let compose_best_at_least_as_good =
  qtest "compose_best min area <= each composition"
    QCheck.(pair points_arb points_arb)
    (fun (pa, pb) ->
      match (Curve.of_points pa, Curve.of_points pb) with
      | exception Invalid_argument _ -> true
      | a, b ->
        let best = Curve.min_area (Curve.compose_best a b) in
        best <= Curve.min_area (Curve.compose_h a b) +. 1e-6
        && best <= Curve.min_area (Curve.compose_v a b) +. 1e-6)

let fits_monotone =
  qtest "fits is monotone in the box" points_arb (fun pts ->
      match Curve.of_points pts with
      | exception Invalid_argument _ -> true
      | c ->
        List.for_all
          (fun (w, h) -> Curve.fits c ~w:(w +. 1.0) ~h:(h +. 1.0))
          (Curve.points c))

let prune_conservative =
  qtest "pruned curve only keeps feasible boxes" points_arb (fun pts ->
      match Curve.of_points pts with
      | exception Invalid_argument _ -> true
      | c ->
        let p = Curve.prune ~max_points:4 c in
        List.for_all (fun (w, h) -> Curve.fits c ~w ~h) (Curve.points p))

(* The merge-walk compositions must be bit for bit the Pareto frontier
   of the full cartesian product they replaced (DESIGN.md section 14
   leans on this for SA determinism): same floats, same order. *)
let compose_matches_cartesian =
  let cartesian f a b =
    let pts = ref [] in
    List.iter
      (fun p1 -> List.iter (fun p2 -> pts := f p1 p2 :: !pts) (Curve.points b))
      (Curve.points a);
    Curve.of_points !pts
  in
  qtest "merge compose = cartesian pareto, bitwise"
    QCheck.(pair points_arb points_arb)
    (fun (pa, pb) ->
      match (Curve.of_points pa, Curve.of_points pb) with
      | exception Invalid_argument _ -> true
      | a, b ->
        let beq_pts c c' =
          List.for_all2
            (fun (w, h) (w', h') ->
              Int64.bits_of_float w = Int64.bits_of_float w'
              && Int64.bits_of_float h = Int64.bits_of_float h')
            (Curve.points c) (Curve.points c')
        in
        let same f g =
          let m = f a b and c = cartesian g a b in
          Curve.size m = Curve.size c && beq_pts m c
        in
        same Curve.compose_h (fun (w1, h1) (w2, h2) -> (w1 +. w2, max h1 h2))
        && same Curve.compose_v (fun (w1, h1) (w2, h2) -> (max w1 w2, h1 +. h2)))

let suite =
  [ ( "shape.curve",
      [ Alcotest.test_case "of_macro" `Quick test_of_macro;
        Alcotest.test_case "pareto pruning" `Quick test_pareto_prunes_dominated;
        Alcotest.test_case "invalid inputs" `Quick test_of_points_invalid;
        Alcotest.test_case "unconstrained" `Quick test_unconstrained;
        Alcotest.test_case "min height/width" `Quick test_min_width;
        Alcotest.test_case "compose dims" `Quick test_compose_dims;
        Alcotest.test_case "compose with unconstrained" `Quick
          test_compose_with_unconstrained;
        Alcotest.test_case "prune" `Quick test_prune;
        staircase_invariant; min_area_point_fits; compose_min_area_superadditive;
        compose_best_at_least_as_good; fits_monotone; prune_conservative;
        compose_matches_cartesian ] ) ]
