(* place-c1-serial, and the fig1 sweep its traced run and the self-test
   make: the HiDaP flow in one process. *)

open Common

let setup_reps = 9

(* Traced sweeps after the loop of a traced run. *)
let sweep_reps = 2

(* The HiDaP flow of the evaluation: the 3-lambda sweep judged by
   measured wirelength. *)
let run_flow ~config (d : Inputs.design) =
  Evalflow.run_flow HiDaP ~config ~flat:d.flat ~gseq:d.gseq ~ports:d.ports ~die:d.die ()

(* The fig1 sweep at jobs = 2, traced: the runtime and pool counters
   of two domains (the gc and parexec metrics). Each sweep must be
   audit-clean and equal the first. *)
let traced_sweeps ~seed =
  let config = Inputs.config ~seed ~jobs:2 in
  let d = Inputs.prepare ~config (Inputs.fig1_params ~seed) in
  let first = ref None in
  for i = 1 to sweep_reps do
    let r =
      traced ~probe:sweep (fun () -> op_span ~name:"sweep" (-i) (fun () -> run_flow ~config d))
    in
    audit_ok "fig1 sweep placement" (audit ~flat:d.flat ~die:d.die r.macros);
    match !first with
    | None -> first := Some r
    | Some (f : Evalflow.run) ->
      check "repeated two-domain sweep is deterministic" (r.macros = f.macros)
  done

(* One HiDaP placement of c1 at lambda = 0.5 on one domain. *)
let place_c1_serial ~seed ~seconds ~trace =
  let config = { (Inputs.config ~seed ~jobs:1) with lambda = 0.5; lambda_sweep = [ 0.5 ] } in
  let prepare () = Inputs.prepare ~config (Inputs.suite_params "c1" ~seed) in
  let d, setup_s = setup ~reps:setup_reps ~trace prepare in
  (* The placement every operation must reproduce, made once after the
     timed set-ups. *)
  let ref_, instances = count_instances (fun () -> Hidap.place ~config ~die:d.die d.flat) in
  let op i is_traced =
    let place () = Hidap.place ~config ~die:d.die d.flat in
    let r, w, c =
      timed (fun () -> if is_traced then traced (fun () -> op_span i place) else place ())
    in
    check_phase i ~traced:is_traced (fun () ->
        audit_ok "c1 placement" (audit ~flat:d.flat ~die:d.die (cp_macros r.placements)));
    check "placement equals the first Hidap.place" (r.placements = ref_.placements);
    Layer_notes.note "flipping.gain" r.flip_gain;
    (w, c)
  in
  let walls, cpus, ops, region_s, loop_setup_s =
    closed_loop ~resetup:(fun () -> ignore (prepare () : Inputs.design)) ~seconds ~trace op
  in
  let setup_s = Float.min setup_s loop_setup_s in
  let macros = cp_macros ref_.placements in
  let evaluate () =
    let m, cp = Evalflow.measure ~flat:d.flat ~gseq:d.gseq ~ports:d.ports ~die:d.die ~macros in
    if trace then congestion_check ~flat:d.flat ~die:d.die ~macros cp m;
    m
  in
  let m =
    if trace then record (fun () -> Obs.Span.with_ ~name:"evaluate" evaluate) else evaluate ()
  in
  if trace then traced_sweeps ~seed;
  { metrics =
      Layers.of_run ~trace ~walls ~cpus ~setup_s ~region_s ~ops ~rss_kb:(maxrss_kb 0)
        ~qor:(qor_of m);
    sizes = Inputs.sizes ~instances [ d ];
    notes = [] }

(* The sweep's placement must not depend on the job count. *)
let selftest ~seed =
  let d = Inputs.prepare ~config:(Inputs.config ~seed ~jobs:1) (Inputs.fig1_params ~seed) in
  let r1 = run_flow ~config:(Inputs.config ~seed ~jobs:1) d in
  let r2 = run_flow ~config:(Inputs.config ~seed ~jobs:2) d in
  check "fig1 sweep placement identical at jobs = 1 and jobs = 2"
    (r1.macros = r2.macros && same_metrics r1.metrics r2.metrics)
