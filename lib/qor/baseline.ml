module Jsonx = Obs.Jsonx

let schema = "hidap-qor-baselines"

let version = 1

(* Gated metrics: name, accessor, whether larger is better, and the
   absolute floor used as the denominator when the baseline is near
   zero (WNS/TNS sit at exactly 0 on relaxed circuits). Runtime is
   deliberately not gated — it is machine-dependent noise. *)
let metrics =
  [ ("wl_um", (fun (q : Record.qmetrics) -> q.Record.wl_um), false, 1.0);
    ("grc_pct", (fun q -> q.Record.grc_pct), false, 0.1);
    ("wns_pct", (fun q -> q.Record.wns_pct), true, 0.1);
    ("tns", (fun q -> q.Record.tns), true, 1.0);
    ("dataflow_cost", (fun q -> q.Record.dataflow_cost), false, 1.0) ]

let default_tolerances =
  [ ("wl_um", 0.02); ("grc_pct", 0.10); ("wns_pct", 0.10); ("tns", 0.10);
    ("dataflow_cost", 0.05) ]

type entry = {
  circuit : string;
  flow : string;
  qm : Record.qmetrics;
}

type t = {
  tolerances : (string * float) list;
  entries : entry list;
}

type verdict = Improved | Unchanged | Regressed

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"

type metric_delta = {
  metric : string;
  baseline : float;
  current : float;
  rel_delta : float;  (** signed badness: > 0 is worse than baseline *)
  tolerance : float;
  metric_verdict : verdict;
}

type comparison = {
  c_circuit : string;
  c_flow : string;
  deltas : metric_delta list;
  run_verdict : verdict;
  missing_baseline : bool;
  missing_run : bool;
}

let tolerance_of t name =
  match List.assoc_opt name t.tolerances with
  | Some tol -> tol
  | None -> (
    match List.assoc_opt name default_tolerances with Some tol -> tol | None -> 0.05)

let find t ~circuit ~flow =
  List.find_opt (fun e -> e.circuit = circuit && e.flow = flow) t.entries

let delta_of ~tolerance ~higher_better ~floor ~baseline ~current =
  let scale = Float.max (Float.abs baseline) floor in
  let raw = (current -. baseline) /. scale in
  let rel_delta = if higher_better then -.raw else raw in
  let metric_verdict =
    if rel_delta > tolerance then Regressed
    else if rel_delta < -.tolerance then Improved
    else Unchanged
  in
  { metric = ""; baseline; current; rel_delta; tolerance; metric_verdict }

let combine verdicts =
  if List.mem Regressed verdicts then Regressed
  else if List.mem Improved verdicts then Improved
  else Unchanged

let compare_record t (r : Record.t) =
  match find t ~circuit:r.Record.circuit ~flow:r.Record.flow with
  | None ->
    { c_circuit = r.Record.circuit;
      c_flow = r.Record.flow;
      deltas = [];
      run_verdict = Unchanged;
      missing_baseline = true;
      missing_run = false }
  | Some base ->
    let deltas =
      List.map
        (fun (name, get, higher_better, floor) ->
          let d =
            delta_of ~tolerance:(tolerance_of t name) ~higher_better ~floor
              ~baseline:(get base.qm) ~current:(get r.Record.qm)
          in
          { d with metric = name })
        metrics
    in
    { c_circuit = r.Record.circuit;
      c_flow = r.Record.flow;
      deltas;
      run_verdict = combine (List.map (fun d -> d.metric_verdict) deltas);
      missing_baseline = false;
      missing_run = false }

(* A baseline entry whose circuit the run covered but whose flow left no
   record is a flow that stopped producing results: it regresses. Entries
   of circuits the run did not cover are out of scope and ignored. *)
let compare_all t records =
  let has p = List.exists p records in
  let no_run e =
    has (fun (r : Record.t) -> r.Record.circuit = e.circuit)
    && not (has (fun (r : Record.t) -> r.Record.circuit = e.circuit && r.Record.flow = e.flow))
  in
  List.map (compare_record t) records
  @ List.filter_map
      (fun e ->
        if no_run e then
          Some
            { c_circuit = e.circuit;
              c_flow = e.flow;
              deltas = [];
              run_verdict = Regressed;
              missing_baseline = false;
              missing_run = true }
        else None)
      t.entries

let overall comparisons = combine (List.map (fun c -> c.run_verdict) comparisons)

let of_records ?(tolerances = default_tolerances) records =
  { tolerances;
    entries =
      List.map
        (fun (r : Record.t) ->
          { circuit = r.Record.circuit; flow = r.Record.flow; qm = r.Record.qm })
        records }

(* ---- JSON ---------------------------------------------------------- *)

let to_json t =
  Jsonx.Obj
    [ ("schema", Jsonx.String schema);
      ("version", Jsonx.Int version);
      ( "tolerances",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) t.tolerances) );
      ( "entries",
        Jsonx.List
          (List.map
             (fun e ->
               Jsonx.Obj
                 [ ("circuit", Jsonx.String e.circuit);
                   ("flow", Jsonx.String e.flow);
                   ( "metrics",
                     Jsonx.Obj
                       (List.map
                          (fun (name, get, _, _) -> (name, Jsonx.Float (get e.qm)))
                          metrics) ) ])
             t.entries) ) ]

open Jsonx.Syntax

(* Every gated metric is required: an entry without one would gate
   against a made-up value. Runtime is never gated, so never stored. *)
let qmetrics_of_json j =
  let metric name = Jsonx.field name Jsonx.float j in
  let* wl_um = metric "wl_um" in
  let* grc_pct = metric "grc_pct" in
  let* wns_pct = metric "wns_pct" in
  let* tns = metric "tns" in
  let* dataflow_cost = metric "dataflow_cost" in
  Ok { Record.wl_um; grc_pct; wns_pct; tns; runtime_s = 0.0; dataflow_cost }

let entry_of_json j =
  let* circuit = Jsonx.field "circuit" Jsonx.string j in
  let* flow = Jsonx.field "flow" Jsonx.string j in
  let* qm = Jsonx.field "metrics" qmetrics_of_json j in
  Ok { circuit; flow; qm }

let of_json j =
  let* s = Jsonx.field "schema" Jsonx.string j in
  if s <> schema then Error "not a hidap-qor-baselines document"
  else
    let* v = Jsonx.field_or "version" ~default:version Jsonx.int j in
    if v > version then
      Error (Printf.sprintf "baselines version %d is newer than supported %d" v version)
    else
      let* tolerances =
        Jsonx.field_or "tolerances" ~default:default_tolerances (Jsonx.assoc Jsonx.float) j
      in
      let* entries = Jsonx.field_or "entries" ~default:[] (Jsonx.list entry_of_json) j in
      Ok { tolerances; entries }

let write path t = Jsonx.write_file path (to_json t)

let load path =
  match Jsonx.parse_file path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok j ->
    (match of_json j with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok _ as ok -> ok)

(* ---- rendering ------------------------------------------------------ *)

let render comparisons =
  let buf = Buffer.create 512 in
  List.iter
    (fun c ->
      if c.missing_baseline then
        Buffer.add_string buf
          (Printf.sprintf "%-8s %-8s NO BASELINE (run --update-baselines to add)\n"
             c.c_circuit c.c_flow)
      else if c.missing_run then
        Buffer.add_string buf
          (Printf.sprintf "%-8s %-8s NO RUN (baseline entry has no record)\n" c.c_circuit
             c.c_flow)
      else begin
        Buffer.add_string buf
          (Printf.sprintf "%-8s %-8s %s\n" c.c_circuit c.c_flow
             (String.uppercase_ascii (verdict_name c.run_verdict)));
        List.iter
          (fun d ->
            if d.metric_verdict <> Unchanged then
              Buffer.add_string buf
                (Printf.sprintf "    %-14s %12.4f -> %-12.4f %+.2f%% (tol %.1f%%) %s\n"
                   d.metric d.baseline d.current (100.0 *. d.rel_delta)
                   (100.0 *. d.tolerance)
                   (verdict_name d.metric_verdict)))
          c.deltas
      end)
    comparisons;
  Buffer.add_string buf
    (Printf.sprintf "overall: %s\n"
       (String.uppercase_ascii (verdict_name (overall comparisons))));
  Buffer.contents buf
