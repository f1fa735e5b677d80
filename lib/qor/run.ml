type ckpt = {
  dir : string;
  every : int;
  resume : bool;
  on_save : unit -> unit;
}

type placed = {
  result : Hidap.result;
  measured : Evalflow.metrics option;
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
let place ~circuit ~(config : Hidap.Config.t) ~die ?ckpt ?(on_resume = ignore)
    ~measure flat =
  let session = ref None in
  let run () =
    let started =
      match ckpt with
      | None -> Ok None
      | Some c ->
        Ckpt.Session.start ~every:c.every ~on_save:c.on_save ~dir:c.dir
          ~resume:c.resume (fingerprint ~circuit ~config flat)
        |> Result.map Option.some
    in
    Result.map
      (fun s ->
        session := s;
        Option.iter on_resume (Option.bind s Ckpt.Session.resumed_from);
        let r = Hidap.place ~config ~die ?ckpt:s flat in
        let measured =
          if measure then
            Some
              (fst
                 (Evalflow.measure ~flat ~gseq:r.Hidap.gseq ~ports:r.Hidap.ports
                    ~die:r.Hidap.die ~macros:r.Hidap.placements))
          else None
        in
        (r, measured))
      started
  in
  match
    Guard.Supervisor.with_run ~budgets:config.Hidap.Config.budgets
      ~faults:config.Hidap.Config.faults run
  with
  | Error d, _ -> Error d
  | Ok (result, measured), degradations ->
    Ok
      { result;
        measured;
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
  let records = Record.of_eval ~circuit ~flat ~config ~spans ~degradations result in
  { flat; result; degradations; records }
