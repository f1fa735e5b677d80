(* Tests for the deterministic fork-join pool: ordering, nesting,
   exception propagation, and the telemetry merge contract. *)

module P = Parexec

let jobs_under_test = [ 1; 2; 4 ]

let test_map_preserves_order () =
  List.iter
    (fun jobs ->
      let xs = Array.init 100 (fun i -> i) in
      let ys = P.map ~jobs (fun i -> i * i) xs in
      Alcotest.(check (array int))
        (Printf.sprintf "squares in input order (jobs=%d)" jobs)
        (Array.map (fun i -> i * i) xs)
        ys)
    jobs_under_test

(* The worker slots that ran tasks in one top-level [map ~jobs] over
   [n] tasks, with the results checked. *)
let slots_used ~jobs n =
  P.reset_pool_stats ();
  let ys = P.map ~jobs (fun i -> i + 1) (Array.init n Fun.id) in
  Alcotest.(check (array int)) (Printf.sprintf "results (jobs=%d)" jobs)
    (Array.init n (fun i -> i + 1)) ys;
  let st = P.pool_stats () in
  Alcotest.(check int) (Printf.sprintf "tasks (jobs=%d)" jobs) n
    (Array.fold_left (fun a (w : P.worker_stats) -> a + w.P.tasks) 0 st.P.workers);
  Array.length st.P.workers

let test_jobs_clamped () =
  Alcotest.(check int) "zero runs on one worker" 1 (slots_used ~jobs:0 6);
  Alcotest.(check int) "negative runs on one worker" 1 (slots_used ~jobs:(-3) 6);
  Alcotest.(check bool) "explicit count bounds the workers" true (slots_used ~jobs:3 6 <= 3);
  Alcotest.(check bool) "default is at least one" true (P.default_jobs () >= 1)

let test_nested_map_degrades () =
  (* A task that maps again must not spawn domains from a worker; the
     nested map runs sequentially and still returns the right values. *)
  let ys =
    P.map ~jobs:4
      (fun i ->
        Array.fold_left ( + ) 0 (P.map ~jobs:4 (fun j -> (10 * i) + j) (Array.init 5 Fun.id)))
      (Array.init 6 Fun.id)
  in
  Alcotest.(check (array int)) "nested results"
    (Array.init 6 (fun i -> (5 * 10 * i) + 10))
    ys

exception Boom of int

let test_exception_lowest_index () =
  List.iter
    (fun jobs ->
      let xs = Array.init 16 (fun i -> i) in
      match P.map ~jobs (fun i -> if i mod 5 = 2 then raise (Boom i) else i) xs with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
        (* failures at 2, 7 and 12: the reported one is the earliest by
           task index, whatever the schedule *)
        Alcotest.(check int)
          (Printf.sprintf "lowest failing index (jobs=%d)" jobs)
          2 i)
    jobs_under_test

(* Telemetry merged at the join point must be identical for every job
   count: counters in full, series and span trees in task order. *)
let run_instrumented jobs =
  let registry = Obs.Perf.create () in
  let spans =
    Obs.Perf.with_ambient registry @@ fun () ->
    Obs.Perf.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Obs.Perf.set_enabled false)
      (fun () ->
        Obs.Trace.start ();
        let (_ : int array) =
          P.map ~jobs
            (fun i ->
              Obs.Span.with_ ~name:(Printf.sprintf "task.%d" i) (fun () ->
                  Obs.Perf.add Obs.Perf.hidap_places 1;
                  Obs.Perf.add Obs.Perf.sa_moves (i + 1);
                  Obs.Perf.series "order" ~x:(float_of_int i) ~y:0.0;
                  i))
            (Array.init 8 Fun.id)
        in
        Obs.Trace.finish ())
  in
  (registry, spans)

let rec span_names (s : Obs.Span.t) =
  s.Obs.Span.name :: List.concat_map span_names s.Obs.Span.children

let test_telemetry_deterministic () =
  let r1, spans1 = run_instrumented 1 in
  let r4, spans4 = run_instrumented 4 in
  Alcotest.(check (list string)) "same metric names" (Obs.Perf.names r1)
    (Obs.Perf.names r4);
  Alcotest.(check (list (pair string int))) "same counters"
    (Obs.Perf.to_assoc r1) (Obs.Perf.to_assoc r4);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "series points merged in task order"
    (Obs.Perf.series_points r1 "order")
    (Obs.Perf.series_points r4 "order");
  Alcotest.(check (list string)) "span trees in task order"
    (List.concat_map span_names spans1)
    (List.concat_map span_names spans4);
  Alcotest.(check int) "all tasks counted" 8 (Obs.Perf.get r1 Obs.Perf.hidap_places);
  Alcotest.(check int) "every task's count added" 36 (Obs.Perf.get r1 Obs.Perf.sa_moves)

let test_results_identical_across_jobs () =
  (* A pure computation gives bitwise-equal outputs regardless of the
     worker count. *)
  let compute jobs =
    P.map ~jobs
      (fun i ->
        let rng = Util.Rng.create i in
        Util.Rng.float rng 1.0)
      (Array.init 32 Fun.id)
  in
  let base = compute 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "identical floats (jobs=%d)" jobs)
        true
        (compute jobs = base))
    jobs_under_test

let suite =
  [ ( "parexec.map",
      [ Alcotest.test_case "preserves order" `Quick test_map_preserves_order;
        Alcotest.test_case "clamps jobs" `Quick test_jobs_clamped;
        Alcotest.test_case "nested map degrades" `Quick test_nested_map_degrades;
        Alcotest.test_case "exception by lowest index" `Quick
          test_exception_lowest_index;
        Alcotest.test_case "telemetry deterministic" `Quick
          test_telemetry_deterministic;
        Alcotest.test_case "results identical across jobs" `Quick
          test_results_identical_across_jobs ] ) ]
