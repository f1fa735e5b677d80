(* ingest-eval-suite: suite circuits through HNL, elaboration and
   the evaluation pipeline, placed by the IndEDA wall packer. No
   annealing: an optimisation of the SA side predicts no change here. *)

open Common

(* The four suite circuits with the fewest cells: a pass takes about a
   second, so a run reads each circuit a dozen times or more. *)
let circuits = [ "c1"; "c5"; "c7"; "c8" ]

type ingested = {
  d : Inputs.design;
  text' : string;  (** the HNL printed again from the parsed text *)
  macros : Cellplace.macro_place list;
  report : Guard.Audit.report;
  m : Evalflow.metrics;
  cp : Cellplace.t;
}

(* One circuit: print, parse, print again, elaborate, build the
   sequential graph and hierarchy tree, wall-pack the macros, audit and
   evaluate. *)
let ingest ~config design =
  let text = Inputs.print design in
  let text' = Inputs.print (Inputs.parse text) in
  let flat = Inputs.elaborate (Inputs.parse text') in
  let gseq = Inputs.seqgraph ~config flat in
  ignore (Obs.Span.with_ ~name:"hier.tree_build" (fun () -> Hier.Tree.build flat) : Hier.Tree.t);
  let die = Hidap.die_for flat ~config in
  let ports = Inputs.port_plan gseq ~die in
  let macros =
    List.map
      (fun (p : Baselines.Indeda.placement) ->
        { Cellplace.fid = p.fid; rect = p.rect; orient = p.orient })
      (Obs.Span.with_ ~name:"baselines.indeda" (fun () ->
           Baselines.Indeda.place ~flat ~gseq ~die ()))
  in
  let report = audit ~flat ~die macros in
  let m, cp = Evalflow.measure ~flat ~gseq ~ports ~die ~macros in
  { d = { text; flat; die; gseq; ports }; text'; macros; report; m; cp }

(* One operation ingests one circuit; a pass of the closed loop is the
   whole suite, so the run's wall_s is the suite's time at the fastest
   reading of each circuit. *)
let run ~seed ~seconds ~trace =
  let config = Inputs.config ~seed ~jobs:1 in
  let generate () =
    Array.of_list
      (List.map (fun c -> Circuitgen.Gen.generate (Inputs.suite_params c ~seed)) circuits)
  in
  let designs, setup_s = setup ~reps:5 ~trace generate in
  let n = Array.length designs in
  let first = Array.make n None in
  let op i is_traced =
    let c = i mod n in
    let one () = ingest ~config designs.(c) in
    let g, w, cpu =
      timed (fun () -> if is_traced then traced (fun () -> op_span i one) else one ())
    in
    check_phase i ~traced:is_traced (fun () ->
        check "print . parse . print is a fixed point" (String.equal g.d.text g.text');
        (* IndEDA turns a macro to fit its ring but reports it unrotated,
           so the audit flags its footprint; that is counted, not failed. *)
        audit_ok ~tolerate:[ "footprint" ] "IndEDA placement" g.report;
        if is_traced then congestion_check ~flat:g.d.flat ~die:g.d.die ~macros:g.macros g.cp g.m);
    (match first.(c) with
    | None -> first.(c) <- Some g
    | Some g0 -> check "repeated ingest is deterministic" (same_metrics g0.m g.m));
    (w, cpu)
  in
  let walls, cpus, ops, region_s, loop_setup_s =
    closed_loop ~pass:n ~resetup:(fun () -> ignore (generate ())) ~seconds ~trace op
  in
  let setup_s = Float.min setup_s loop_setup_s in
  let firsts = List.filter_map Fun.id (Array.to_list first) in
  let k = float_of_int (List.length firsts) in
  let sum f = List.fold_left (fun a g -> a +. f g.m) 0.0 firsts in
  let qor =
    { wl_um = sum (fun m -> m.wl_um);
      grc_pct = sum (fun m -> m.grc_pct) /. k;
      wns_pct = sum (fun m -> m.wns_pct) /. k }
  in
  { metrics =
      Layers.of_run ~trace ~walls ~cpus ~setup_s ~region_s ~ops ~rss_kb:(maxrss_kb 0) ~qor;
    sizes = Inputs.sizes (List.map (fun g -> g.d) firsts);
    notes = [] }
