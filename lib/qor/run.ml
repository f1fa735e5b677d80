type source = Circuit of string | File of string | Text of { name : string; hnl : string }

type stop =
  | Unknown_circuit of string
  | Parse_error of Hnl.Parser.error
  | Invalid_design of Guard.Diag.t list
  | Elaboration of string
  | Invalid_netlist of Guard.Diag.t list

type input = {
  name : string;
  design : Netlist.Design.t;
  flat : Netlist.Flat.t;
  die : Geom.Rect.t;
  diags : Guard.Diag.t list;
}

let name_of = function
  | Circuit name | Text { name; _ } -> name
  | File path -> Filename.remove_extension (Filename.basename path)

(* Elaboration raises [Invalid_argument] only for a missing or recursive
   module, which the validator already rejects: a backstop. *)
let load ~strict ~(config : Hidap.Config.t) source =
  let ( let* ) = Result.bind in
  let parsed = Result.map_error (fun e -> Parse_error e) in
  let* design =
    match source with
    | Circuit name ->
      (match Circuitgen.Suite.find name with
      | Some c -> Ok (Circuitgen.Gen.generate c.Circuitgen.Suite.params)
      | None -> Error (Unknown_circuit name))
    | File path -> parsed (Hnl.Parser.parse_file path)
    | Text { hnl; _ } -> parsed (Hnl.Parser.parse_string hnl)
  in
  let* { Guard.Validate.design; diags; _ } =
    Result.map_error (fun ds -> Invalid_design ds) (Guard.Validate.design ~strict design)
  in
  let* flat =
    try Ok (Netlist.Flat.elaborate design)
    with Invalid_argument msg -> Error (Elaboration msg)
  in
  let die = Hidap.die_for flat ~config in
  let diags = diags @ Guard.Validate.flat ~strict ~die flat in
  if Guard.Validate.errors diags <> [] then Error (Invalid_netlist diags)
  else Ok { name = name_of source; design; flat; die; diags }

type ckpt = {
  dir : string;
  resume : bool;
  on_save : unit -> unit;
}

type placed = {
  result : Hidap.result;
  run : Evalflow.run option;
  degradations : Guard.Supervisor.entry list;
  ckpt_summary : Record.ckpt_info option;
}

let fingerprint ~circuit ~(config : Hidap.Config.t) flat =
  { Ckpt.State.circuit;
    seed = config.Hidap.Config.seed;
    lambda = config.Hidap.Config.lambda;
    sa_starts = config.Hidap.Config.sa_starts;
    cells = Netlist.Flat.cell_count flat;
    macro_count = Netlist.Flat.macro_count flat }

(* The session starts inside the supervised region: a resume-time
   rollback or a failed snapshot write is recorded through
   [Guard.Supervisor.record], which is a no-op outside a run. *)
let place ~(config : Hidap.Config.t) ?ckpt ?(on_resume = ignore) ~measure
    { name = circuit; flat; die; _ } =
  let session = ref None in
  let run () =
    let started =
      match ckpt with
      | None -> Ok None
      | Some c ->
        Ckpt.Session.start ~on_save:c.on_save ~dir:c.dir
          ~resume:c.resume (fingerprint ~circuit ~config flat)
        |> Result.map Option.some
    in
    Result.map
      (fun s ->
        session := s;
        Option.iter on_resume (Option.bind s Ckpt.Session.resumed_from);
        let place () = Hidap.place ~config ~die ?ckpt:s flat in
        if not measure then (place (), None)
        else
          let result = ref None in
          let run =
            Evalflow.judge HiDaP ~flat ~die ~lambda:(Some config.Hidap.Config.lambda)
              (fun () ->
                let r = place () in
                result := Some r;
                Evalflow.hidap_placed r)
          in
          (Option.get !result, Some run))
      started
  in
  match
    Guard.Supervisor.with_run ~budgets:config.Hidap.Config.budgets
      ~faults:config.Hidap.Config.faults run
  with
  | Error d, _ -> Error d
  | Ok (result, run), degradations ->
    Ok
      { result;
        run = Option.map (fun (r : Evalflow.run) -> { r with degradations }) run;
        degradations;
        ckpt_summary = Option.map Ckpt.Session.summary !session }
  | exception (Guard.Budget.Cancelled _ as e) ->
    let bt = Printexc.get_raw_backtrace () in
    Option.iter
      (fun s -> try Ckpt.Session.save_now s with _ -> ())
      !session;
    Printexc.raise_with_backtrace e bt

type evaluated = {
  flat : Netlist.Flat.t;
  result : Evalflow.circuit_result;
  degradations : Guard.Supervisor.entry list;
  records : Record.t list;
}

(* The span of one flow's run in an eval trace, as a trace of its own. *)
let flow_spans flow spans =
  let rec find spans =
    List.find_map
      (fun (sp : Obs.Span.t) ->
        if sp.Obs.Span.name = "evalflow.flow"
           && List.assoc_opt "flow" sp.Obs.Span.attrs = Some flow
        then Some sp
        else find sp.Obs.Span.children)
      spans
  in
  Option.to_list (find spans)

let eval ~(config : Hidap.Config.t) ?on_finish load =
  let (circuit, flat, result, degradations), spans =
    Obs.Trace.instrumented ?on_finish (fun () ->
        let circuit, flat = load () in
        let result, degradations =
          Guard.Supervisor.with_run ~budgets:config.Hidap.Config.budgets
            ~faults:config.Hidap.Config.faults (fun () ->
              Evalflow.run_all ~config ~name:circuit flat)
        in
        (circuit, flat, result, degradations))
  in
  let record (run : Evalflow.run) =
    let flow = Evalflow.flow_name run.Evalflow.kind in
    let displacement =
      List.filter_map
        (fun (other : Evalflow.run) ->
          if other == run then None
          else
            Some (Evalflow.flow_name other.Evalflow.kind, Evalflow.macro_displacement run other))
        result.Evalflow.runs
    in
    Record.of_run ~circuit ~flat ~config ~spans:(flow_spans flow spans) ~displacement run
  in
  { flat; result; degradations; records = List.map record result.Evalflow.runs }
