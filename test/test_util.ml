(* Unit and property tests for the util substrate. *)

let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ---- Rng ---------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.bits64 a) (Util.Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  Alcotest.(check bool) "different output" false (Util.Rng.bits64 a = Util.Rng.bits64 b)

let test_rng_split_independent () =
  let a = Util.Rng.create 7 in
  let c = Util.Rng.split a in
  Alcotest.(check bool) "split stream differs" false
    (Util.Rng.bits64 a = Util.Rng.bits64 c)

let test_rng_copy () =
  let a = Util.Rng.create 3 in
  ignore (Util.Rng.bits64 a);
  let b = Util.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Util.Rng.bits64 a) (Util.Rng.bits64 b)

let rng_int_bounds =
  qtest "Rng.int in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let v = Util.Rng.int rng n in
      v >= 0 && v < n)

let rng_range_bounds =
  qtest "Rng.range inclusive bounds"
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Util.Rng.create seed in
      let v = Util.Rng.range rng lo (lo + span) in
      v >= lo && v <= lo + span)

let rng_float_bounds =
  qtest "Rng.float in [0,x)"
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, x) ->
      let rng = Util.Rng.create seed in
      let v = Util.Rng.float rng x in
      v >= 0.0 && v < x)

let rng_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck.(pair small_int (list int))
    (fun (seed, l) ->
      let rng = Util.Rng.create seed in
      let a = Array.of_list l in
      Util.Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_rng_gaussian_moments () =
  let rng = Util.Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let v = Util.Rng.gaussian rng ~mean:5.0 ~stddev:2.0 in
    sum := !sum +. v;
    sq := !sq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 5" true (abs_float (mean -. 5.0) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (abs_float (sqrt var -. 2.0) < 0.1)

(* ---- Histogram ---------------------------------------------------- *)

let test_histogram_basic () =
  let h = Util.Histogram.create () in
  Alcotest.(check bool) "empty" true (Util.Histogram.is_empty h);
  Util.Histogram.add h ~bin:2 ~weight:8.0;
  Util.Histogram.add h ~bin:2 ~weight:4.0;
  Util.Histogram.add h ~bin:5 ~weight:1.0;
  check_float "bin 2 accumulates" 12.0 (Util.Histogram.get h 2);
  check_float "bin 5" 1.0 (Util.Histogram.get h 5);
  check_float "untouched bin" 0.0 (Util.Histogram.get h 3);
  check_float "total" 13.0 (Util.Histogram.total h);
  Alcotest.(check int) "max bin" 5 (Util.Histogram.max_bin h);
  Alcotest.(check (list (pair int (float 1e-9)))) "bins sorted"
    [ (2, 12.0); (5, 1.0) ] (Util.Histogram.bins h)

let test_histogram_merge () =
  let a = Util.Histogram.create () and b = Util.Histogram.create () in
  Util.Histogram.add a ~bin:1 ~weight:3.0;
  Util.Histogram.add b ~bin:1 ~weight:2.0;
  Util.Histogram.add b ~bin:4 ~weight:7.0;
  let m = Util.Histogram.merge a b in
  check_float "merged bin" 5.0 (Util.Histogram.get m 1);
  check_float "b-only bin" 7.0 (Util.Histogram.get m 4);
  check_float "a unchanged" 3.0 (Util.Histogram.get a 1)

let test_histogram_score () =
  let h = Util.Histogram.create () in
  Util.Histogram.add h ~bin:1 ~weight:8.0;
  Util.Histogram.add h ~bin:2 ~weight:8.0;
  check_float "k=0 is total" 16.0 (Util.Histogram.score h ~k:0);
  check_float "k=1 decays" (8.0 +. 4.0) (Util.Histogram.score h ~k:1);
  check_float "k=2 decays quadratically" (8.0 +. 2.0) (Util.Histogram.score h ~k:2)

let test_histogram_score_bin0 () =
  (* bin 0 (combinational paths) counts as latency 1 *)
  let h = Util.Histogram.create () in
  Util.Histogram.add h ~bin:0 ~weight:4.0;
  check_float "bin 0 like latency 1" 4.0 (Util.Histogram.score h ~k:2)

let histogram_score_monotone_k =
  qtest "score non-increasing in k"
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_range 1 8) (float_range 0.0 100.0)))
    (fun entries ->
      let h = Util.Histogram.create () in
      List.iter (fun (bin, weight) -> Util.Histogram.add h ~bin ~weight) entries;
      Util.Histogram.score h ~k:0 >= Util.Histogram.score h ~k:1
      && Util.Histogram.score h ~k:1 >= Util.Histogram.score h ~k:2)

(* ---- Stat --------------------------------------------------------- *)

let test_geometric_mean () =
  check_float "geo mean of [2;8]" 4.0 (Util.Stat.geometric_mean [ 2.0; 8.0 ]);
  check_float "geo mean of identical" 3.0 (Util.Stat.geometric_mean [ 3.0; 3.0; 3.0 ])

let test_geometric_mean_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "geometric_mean: empty list") (fun () ->
      ignore (Util.Stat.geometric_mean []));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "geometric_mean: non-positive element") (fun () ->
      ignore (Util.Stat.geometric_mean [ 1.0; 0.0 ]))

let test_mean_median () =
  check_float "mean" 2.0 (Util.Stat.mean [ 1.0; 2.0; 3.0 ]);
  check_float "median odd" 2.0 (Util.Stat.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Util.Stat.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_stddev () =
  check_float "stddev singleton" 0.0 (Util.Stat.stddev [ 5.0 ]);
  check_float "stddev of [0;2]" 1.0 (Util.Stat.stddev [ 0.0; 2.0 ])

let test_clamp () =
  check_float "below" 1.0 (Util.Stat.clamp ~lo:1.0 ~hi:2.0 0.5);
  check_float "above" 2.0 (Util.Stat.clamp ~lo:1.0 ~hi:2.0 3.0);
  check_float "inside" 1.5 (Util.Stat.clamp ~lo:1.0 ~hi:2.0 1.5);
  Alcotest.(check int) "int clamp" 4 (Util.Stat.clamp_int ~lo:0 ~hi:4 9)

let geo_between_min_max =
  qtest "geo mean between min and max"
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.1 100.0))
    (fun l ->
      let g = Util.Stat.geometric_mean l in
      g >= Util.Stat.minimum l -. 1e-9 && g <= Util.Stat.maximum l +. 1e-9)

(* ---- Heap --------------------------------------------------------- *)

let test_heap_basic () =
  let h = Util.Heap.create () in
  Alcotest.(check bool) "empty" true (Util.Heap.is_empty h);
  Util.Heap.push h ~key:3.0 "c";
  Util.Heap.push h ~key:1.0 "a";
  Util.Heap.push h ~key:2.0 "b";
  Alcotest.(check int) "length" 3 (Util.Heap.length h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a"))
    (Util.Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b"))
    (Util.Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c"))
    (Util.Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop empty" None (Util.Heap.pop_min h)

let heap_sorts =
  qtest "pops come out sorted"
    QCheck.(list (float_range (-1000.0) 1000.0))
    (fun keys ->
      let h = Util.Heap.create () in
      List.iteri (fun i k -> Util.Heap.push h ~key:k i) keys;
      let rec drain acc =
        match Util.Heap.pop_min h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort compare keys)

(* ---- Names -------------------------------------------------------- *)

let test_array_base () =
  Alcotest.(check (option (pair string int))) "bracket form" (Some ("data", 3))
    (Util.Names.array_base "data[3]");
  Alcotest.(check (option (pair string int))) "underscore form" (Some ("data", 17))
    (Util.Names.array_base "data_17");
  Alcotest.(check (option (pair string int))) "nested underscore" (Some ("stage0_1", 5))
    (Util.Names.array_base "stage0_1_5");
  Alcotest.(check (option (pair string int))) "no index" None (Util.Names.array_base "clk");
  Alcotest.(check (option (pair string int))) "empty" None (Util.Names.array_base "");
  Alcotest.(check (option (pair string int))) "bad bracket" None (Util.Names.array_base "x[a]");
  Alcotest.(check (option (pair string int))) "underscore only" None (Util.Names.array_base "_3")

let test_join_split () =
  Alcotest.(check string) "join" "a/b" (Util.Names.join "a" "b");
  Alcotest.(check string) "join empty prefix" "b" (Util.Names.join "" "b");
  Alcotest.(check (list string)) "split" [ "a"; "b"; "c" ] (Util.Names.split_path "a/b/c")

let test_is_prefix () =
  Alcotest.(check bool) "prefix" true (Util.Names.is_prefix ~prefix:"a/b" "a/b/c");
  Alcotest.(check bool) "not prefix" false (Util.Names.is_prefix ~prefix:"a/c" "a/b/c")

let suite =
  [ ( "util.rng",
      [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "different seeds" `Quick test_rng_different_seeds;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
        rng_int_bounds; rng_range_bounds; rng_float_bounds; rng_shuffle_permutation ] );
    ( "util.histogram",
      [ Alcotest.test_case "basic" `Quick test_histogram_basic;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
        Alcotest.test_case "score" `Quick test_histogram_score;
        Alcotest.test_case "score bin 0" `Quick test_histogram_score_bin0;
        histogram_score_monotone_k ] );
    ( "util.stat",
      [ Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
        Alcotest.test_case "geometric mean errors" `Quick test_geometric_mean_errors;
        Alcotest.test_case "mean/median" `Quick test_mean_median;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "clamp" `Quick test_clamp;
        geo_between_min_max ] );
    ( "util.heap",
      [ Alcotest.test_case "basic" `Quick test_heap_basic; heap_sorts ] );
    ( "util.names",
      [ Alcotest.test_case "array_base" `Quick test_array_base;
        Alcotest.test_case "join/split" `Quick test_join_split;
        Alcotest.test_case "is_prefix" `Quick test_is_prefix ] ) ]
