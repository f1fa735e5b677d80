(* Tests for the geometry substrate. *)

module Point = Geom.Point
module Rect = Geom.Rect
module O = Geom.Orientation

let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let point_arb =
  QCheck.(
    map
      (fun (x, y) -> Point.make x y)
      (pair (float_range (-100.0) 100.0) (float_range (-100.0) 100.0)))

let rect_arb =
  QCheck.(
    map
      (fun (x, y, w, h) -> Rect.make ~x ~y ~w ~h)
      (quad (float_range (-50.0) 50.0) (float_range (-50.0) 50.0)
         (float_range 0.0 40.0) (float_range 0.0 40.0)))

(* ---- Point -------------------------------------------------------- *)

let test_point_arith () =
  let a = Point.make 1.0 2.0 and b = Point.make 3.0 5.0 in
  Alcotest.(check bool) "add" true (Point.equal (Point.add a b) (Point.make 4.0 7.0));
  Alcotest.(check bool) "sub" true (Point.equal (Point.sub b a) (Point.make 2.0 3.0));
  Alcotest.(check bool) "scale" true (Point.equal (Point.scale 2.0 a) (Point.make 2.0 4.0))

let test_distances () =
  let a = Point.make 0.0 0.0 and b = Point.make 3.0 4.0 in
  check_float "manhattan" 7.0 (Point.manhattan a b);
  check_float "euclidean" 5.0 (Point.euclidean a b)

let manhattan_triangle =
  qtest "manhattan triangle inequality"
    QCheck.(triple point_arb point_arb point_arb)
    (fun (a, b, c) ->
      Point.manhattan a c <= Point.manhattan a b +. Point.manhattan b c +. 1e-9)

let manhattan_symmetric =
  qtest "manhattan symmetric" QCheck.(pair point_arb point_arb) (fun (a, b) ->
      abs_float (Point.manhattan a b -. Point.manhattan b a) < 1e-12)

let euclidean_le_manhattan =
  qtest "euclidean <= manhattan" QCheck.(pair point_arb point_arb) (fun (a, b) ->
      Point.euclidean a b <= Point.manhattan a b +. 1e-9)

(* ---- Rect --------------------------------------------------------- *)

let test_rect_basic () =
  let r = Rect.make ~x:1.0 ~y:2.0 ~w:4.0 ~h:6.0 in
  check_float "area" 24.0 (Rect.area r);
  Alcotest.(check bool) "center" true (Point.equal (Rect.center r) (Point.make 3.0 5.0));
  Alcotest.(check bool) "contains center" true (Rect.contains_point r (Rect.center r));
  Alcotest.(check bool) "contains corner" true (Rect.contains_point r (Point.make 1.0 2.0));
  Alcotest.(check bool) "outside" false (Rect.contains_point r (Point.make 0.0 0.0))

let test_rect_overlap () =
  let a = Rect.make ~x:0.0 ~y:0.0 ~w:2.0 ~h:2.0 in
  let b = Rect.make ~x:1.0 ~y:1.0 ~w:2.0 ~h:2.0 in
  let c = Rect.make ~x:2.0 ~y:0.0 ~w:2.0 ~h:2.0 in
  Alcotest.(check bool) "overlapping" true (Rect.overlaps a b);
  Alcotest.(check bool) "touching does not overlap" false (Rect.overlaps a c);
  check_float "intersection" 1.0 (Rect.intersection_area a b);
  check_float "no intersection" 0.0 (Rect.intersection_area a c)

let test_rect_split () =
  let r = Rect.make ~x:0.0 ~y:0.0 ~w:4.0 ~h:2.0 in
  let l, rr = Rect.split_v r 0.25 in
  check_float "left width" 1.0 l.Rect.w;
  check_float "right width" 3.0 rr.Rect.w;
  check_float "right x" 1.0 rr.Rect.x;
  let b, t = Rect.split_h r 0.5 in
  check_float "bottom height" 1.0 b.Rect.h;
  check_float "top y" 1.0 t.Rect.y

let test_rect_misc () =
  let r = Rect.make ~x:0.0 ~y:0.0 ~w:4.0 ~h:2.0 in
  check_float "aspect" 2.0 (Rect.aspect_ratio r);
  let i = Rect.inset r 0.5 in
  check_float "inset width" 3.0 i.Rect.w;
  Alcotest.(check int) "corners" 4 (Array.length (Rect.corners r));
  let degenerate = Rect.make ~x:0.0 ~y:0.0 ~w:0.0 ~h:1.0 in
  Alcotest.(check bool) "degenerate aspect infinite" true
    (Rect.aspect_ratio degenerate = infinity)

let intersection_commutative =
  qtest "intersection commutative" QCheck.(pair rect_arb rect_arb) (fun (a, b) ->
      abs_float (Rect.intersection_area a b -. Rect.intersection_area b a) < 1e-9)

let intersection_bounded =
  qtest "intersection bounded by areas" QCheck.(pair rect_arb rect_arb) (fun (a, b) ->
      let i = Rect.intersection_area a b in
      i >= 0.0 && i <= Rect.area a +. 1e-9 && i <= Rect.area b +. 1e-9)

(* Every bin of the grid that [r] overlaps lies in its range, bins built
   as the congestion and density grids build them. *)
let grid_range_covers =
  qtest "grid_range covers every overlapping bin"
    QCheck.(triple rect_arb rect_arb (int_range 1 32))
    (fun (r, grid, bins) ->
      let i0, i1, j0, j1 = Rect.grid_range r ~grid ~bins in
      let bw = grid.Rect.w /. float_of_int bins and bh = grid.Rect.h /. float_of_int bins in
      let ok = ref (0 <= i0 && i0 <= i1 && i1 < bins && 0 <= j0 && j0 <= j1 && j1 < bins) in
      for i = 0 to bins - 1 do
        for j = 0 to bins - 1 do
          let bin =
            Rect.make
              ~x:(grid.Rect.x +. (float_of_int i *. bw))
              ~y:(grid.Rect.y +. (float_of_int j *. bh))
              ~w:bw ~h:bh
          in
          if (i < i0 || i > i1 || j < j0 || j > j1) && Rect.intersection_area bin r <> 0.0 then
            ok := false
        done
      done;
      !ok)

let split_partitions =
  qtest "split_v partitions the area"
    QCheck.(pair rect_arb (float_range 0.0 1.0))
    (fun (r, f) ->
      let a, b = Rect.split_v r f in
      abs_float (Rect.area a +. Rect.area b -. Rect.area r) < 1e-6
      && not (Rect.overlaps a b))

(* ---- Orientation -------------------------------------------------- *)

let test_orient_dims () =
  List.iter
    (fun o ->
      let w, h = O.apply_dims o ~w:3.0 ~h:2.0 in
      if O.swaps_dims o then begin
        check_float "swapped w" 2.0 w;
        check_float "swapped h" 3.0 h
      end
      else begin
        check_float "kept w" 3.0 w;
        check_float "kept h" 2.0 h
      end)
    (Array.to_list O.all)

let test_orient_offsets () =
  let w = 4.0 and h = 2.0 in
  let p = Point.make 1.0 0.5 in
  let check name o expected =
    Alcotest.(check bool) name true (Point.equal (O.apply_offset o ~w ~h p) expected)
  in
  check "R0 identity" O.R0 p;
  check "MY mirrors x" O.MY (Point.make 3.0 0.5);
  check "MX mirrors y" O.MX (Point.make 1.0 1.5);
  check "R180 mirrors both" O.R180 (Point.make 3.0 1.5)

let test_orient_strings () =
  Array.iter
    (fun o ->
      match O.of_string (O.to_string o) with
      | Some o' -> Alcotest.(check bool) "roundtrip" true (o = o')
      | None -> Alcotest.fail "of_string failed")
    O.all;
  Alcotest.(check (option unit)) "bad string" None
    (Option.map (fun _ -> ()) (O.of_string "R45"))

let test_orient_compose_identity () =
  Array.iter
    (fun o ->
      Alcotest.(check string) "right identity" (O.to_string o) (O.to_string (O.compose o O.R0));
      Alcotest.(check string) "left identity" (O.to_string o) (O.to_string (O.compose O.R0 o)))
    O.all

let test_orient_compose_group () =
  (* the orientation set forms a group: every row and column of the
     composition table is a permutation *)
  Array.iter
    (fun a ->
      let row = Array.map (fun b -> O.compose a b) O.all in
      let col = Array.map (fun b -> O.compose b a) O.all in
      let distinct arr =
        let l = Array.to_list (Array.map O.to_string arr) in
        List.length (List.sort_uniq compare l) = Array.length arr
      in
      Alcotest.(check bool) "row is permutation" true (distinct row);
      Alcotest.(check bool) "col is permutation" true (distinct col))
    O.all

let test_orient_rotation_subgroup () =
  Alcotest.(check string) "R90*R90=R180" "R180" (O.to_string (O.compose O.R90 O.R90));
  Alcotest.(check string) "R90*R270=R0" "R0" (O.to_string (O.compose O.R90 O.R270));
  Alcotest.(check string) "MX*MX=R0" "R0" (O.to_string (O.compose O.MX O.MX));
  Alcotest.(check string) "MY*MY=R0" "R0" (O.to_string (O.compose O.MY O.MY))

let offset_stays_in_footprint =
  qtest "oriented offset stays inside the footprint"
    QCheck.(pair (int_range 0 7) (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (oi, (fx, fy)) ->
      let o = O.all.(oi) in
      let w = 5.0 and h = 3.0 in
      let p = Point.make (fx *. w) (fy *. h) in
      let q = O.apply_offset o ~w ~h p in
      let w', h' = O.apply_dims o ~w ~h in
      q.Point.x >= -1e-9 && q.Point.x <= w' +. 1e-9 && q.Point.y >= -1e-9
      && q.Point.y <= h' +. 1e-9)

(* ---- Wirelength --------------------------------------------------- *)

let test_hpwl () =
  check_float "two pins" 7.0
    (Geom.Wirelength.hpwl [ Point.make 0.0 0.0; Point.make 3.0 4.0 ]);
  check_float "single pin" 0.0 (Geom.Wirelength.hpwl [ Point.origin ]);
  check_float "empty" 0.0 (Geom.Wirelength.hpwl []);
  check_float "interior pins ignored" 7.0
    (Geom.Wirelength.hpwl
       [ Point.make 0.0 0.0; Point.make 1.0 1.0; Point.make 3.0 4.0 ])

let hpwl_translation_invariant =
  qtest "hpwl translation invariant"
    QCheck.(pair (list_of_size (Gen.int_range 2 8) point_arb) point_arb)
    (fun (pins, d) ->
      let moved = List.map (Point.add d) pins in
      abs_float (Geom.Wirelength.hpwl pins -. Geom.Wirelength.hpwl moved) < 1e-6)

let hpwl_le_star =
  qtest "hpwl <= 2x star length"
    QCheck.(list_of_size (Gen.int_range 2 8) point_arb)
    (fun pins ->
      Geom.Wirelength.hpwl pins <= (2.0 *. Geom.Wirelength.star pins) +. 1e-6)

let suite =
  [ ( "geom.point",
      [ Alcotest.test_case "arithmetic" `Quick test_point_arith;
        Alcotest.test_case "distances" `Quick test_distances;
        manhattan_triangle; manhattan_symmetric; euclidean_le_manhattan ] );
    ( "geom.rect",
      [ Alcotest.test_case "basic" `Quick test_rect_basic;
        Alcotest.test_case "overlap" `Quick test_rect_overlap;
        Alcotest.test_case "split" `Quick test_rect_split;
        Alcotest.test_case "misc" `Quick test_rect_misc;
        intersection_commutative; intersection_bounded; grid_range_covers; split_partitions ] );
    ( "geom.orientation",
      [ Alcotest.test_case "dims" `Quick test_orient_dims;
        Alcotest.test_case "offsets" `Quick test_orient_offsets;
        Alcotest.test_case "strings" `Quick test_orient_strings;
        Alcotest.test_case "compose identity" `Quick test_orient_compose_identity;
        Alcotest.test_case "compose group" `Quick test_orient_compose_group;
        Alcotest.test_case "rotation subgroup" `Quick test_orient_rotation_subgroup;
        offset_stays_in_footprint ] );
    ( "geom.wirelength",
      [ Alcotest.test_case "hpwl" `Quick test_hpwl;
        hpwl_translation_invariant; hpwl_le_star ] ) ]
