module D = Netlist.Design

type params = {
  name : string;
  seed : int;
  n_subsystems : int;
  units_per_subsystem : int;
  n_macros : int;
  bus_width : int;
  pipe_stages : int;
  target_cells : int;
  macro_w : float;
  macro_h : float;
  port_arrays : int;
  cross_links : int;
  cell_area : float;
}

let default =
  { name = "demo";
    seed = 7;
    n_subsystems = 2;
    units_per_subsystem = 2;
    n_macros = 8;
    bus_width = 16;
    pipe_stages = 1;
    target_cells = 2_000;
    macro_w = 60.0;
    macro_h = 40.0;
    port_arrays = 4;
    cross_links = 1;
    cell_area = 8.0 }

let scale_macros p ~n_macros = { p with n_macros }

let macro_count p = p.n_macros

(* ------------------------------------------------------------------ *)

let bit_names prefix w = List.init w (fun i -> Printf.sprintf "%s_%d" prefix i)

(* Distribute [total] into [n] buckets as evenly as possible. *)
let distribute total n =
  assert (n > 0);
  Array.init n (fun i -> (total / n) + if i < total mod n then 1 else 0)

(* A datapath unit: [in] bus -> (pipe regs -> macro)+ -> [out] bus.
   Units with zero macros degrade to a register pipeline. The module
   also carries [filler] chained combinational cells to reach the
   design's cell budget. *)
let unit_module ~p ~rng ~mname ~n_macros ~filler =
  let w = p.bus_width in
  let cells = ref [] in
  let add c = cells := c :: !cells in
  let comb ~name ~ins ~outs =
    add (D.cell ~name ~kind:D.Comb ~area:p.cell_area ~ins ~outs ())
  in
  let flop ~name ~ins ~outs =
    add (D.cell ~name ~kind:D.Flop ~area:p.cell_area ~ins ~outs ())
  in
  let cur = ref (bit_names "in" w) in
  let stage_and_macro k =
    (* pipe_stages register stages *)
    for s = 0 to p.pipe_stages - 1 do
      let next =
        List.mapi
          (fun i net ->
            let mixed =
              (* second input mixes neighbouring bits: creates a little
                 combinational cross-coupling inside the array *)
              List.nth !cur ((i + 1) mod w)
            in
            let cnet = Printf.sprintf "c%d_%d_%d" k s i in
            let qnet = Printf.sprintf "rq%d_%d_%d" k s i in
            comb ~name:(Printf.sprintf "g%d_%d_%d" k s i) ~ins:[ net; mixed ]
              ~outs:[ cnet ];
            flop ~name:(Printf.sprintf "stage%d_%d_%d" k s i) ~ins:[ cnet ] ~outs:[ qnet ];
            qnet)
          !cur
      in
      cur := next
    done;
    if k < n_macros then begin
      (* a hard memory macro consuming and producing the whole bus *)
      let jw = p.macro_w *. (0.85 +. Util.Rng.float rng 0.3) in
      let jh = p.macro_h *. (0.85 +. Util.Rng.float rng 0.3) in
      let outs = bit_names (Printf.sprintf "q%d" k) w in
      add
        (D.cell
           ~name:(Printf.sprintf "mem%d" k)
           ~kind:(D.make_macro ~w:jw ~h:jh)
           ~ins:!cur ~outs ());
      cur := outs
    end
  in
  let rounds = max n_macros 1 in
  for k = 0 to rounds - 1 do
    stage_and_macro k
  done;
  (* drive the output bus through a final combinational stage *)
  List.iteri
    (fun i net -> comb ~name:(Printf.sprintf "o_%d" i) ~ins:[ net ] ~outs:[ Printf.sprintf "out_%d" i ])
    !cur;
  (* filler chain hanging off the first current net *)
  if filler > 0 then begin
    let anchor = List.nth !cur 0 in
    let prev = ref anchor in
    for j = 0 to filler - 1 do
      let n = Printf.sprintf "fn_%d" j in
      comb ~name:(Printf.sprintf "f_%d" j) ~ins:[ !prev ] ~outs:[ n ];
      prev := n
    done
  end;
  let ports =
    List.map (fun n -> D.port ~name:n ~dir:D.Input) (bit_names "in" w)
    @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bit_names "out" w)
  in
  D.module_def ~name:mname ~ports ~cells:(List.rev !cells) ()

(* A cells-only connector block: registers plus glue between two buses,
   with optional tap inputs coming from elsewhere in the design. *)
let connector_module ~p ~mname ~taps ~filler =
  let w = p.bus_width in
  let a = p.cell_area in
  let cells = ref [] in
  let add c = cells := c :: !cells in
  let tap_nets = bit_names "tap" taps in
  List.iteri
    (fun i _ ->
      let inn = Printf.sprintf "in_%d" i in
      let extra = if taps > 0 then [ List.nth tap_nets (i mod taps) ] else [] in
      let cnet = Printf.sprintf "xc_%d" i in
      let qnet = Printf.sprintf "xq_%d" i in
      add (D.cell ~name:(Printf.sprintf "x_%d" i) ~kind:D.Comb ~area:a ~ins:(inn :: extra) ~outs:[ cnet ] ());
      add (D.cell ~name:(Printf.sprintf "xr_%d" i) ~kind:D.Flop ~area:a ~ins:[ cnet ] ~outs:[ qnet ] ());
      add
        (D.cell ~name:(Printf.sprintf "y_%d" i) ~kind:D.Comb ~area:a ~ins:[ qnet ]
           ~outs:[ Printf.sprintf "out_%d" i ] ()))
    (bit_names "in" w);
  if filler > 0 then begin
    let prev = ref "xq_0" in
    for j = 0 to filler - 1 do
      let n = Printf.sprintf "fn_%d" j in
      add (D.cell ~name:(Printf.sprintf "f_%d" j) ~kind:D.Comb ~area:a ~ins:[ !prev ] ~outs:[ n ] ());
      prev := n
    done
  end;
  let ports =
    List.map (fun n -> D.port ~name:n ~dir:D.Input) (bit_names "in" w)
    @ List.map (fun n -> D.port ~name:n ~dir:D.Input) tap_nets
    @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bit_names "out" w)
  in
  D.module_def ~name:mname ~ports ~cells:(List.rev !cells) ()

(* Subsystem: a chain of unit instances over internal buses. *)
let subsystem_module ~p ~mname ~unit_mnames =
  let w = p.bus_width in
  let n_units = List.length unit_mnames in
  let bus k = bit_names (Printf.sprintf "bus%d" k) w in
  let insts =
    List.mapi
      (fun k umod ->
        let ins = if k = 0 then bit_names "in" w else bus k in
        let outs = if k = n_units - 1 then bit_names "out" w else bus (k + 1) in
        let bindings =
          List.map2 (fun f a -> (f, a)) (bit_names "in" w) ins
          @ List.map2 (fun f a -> (f, a)) (bit_names "out" w) outs
        in
        D.inst ~name:(Printf.sprintf "u%d" k) ~module_:umod ~bindings)
      unit_mnames
  in
  let ports =
    List.map (fun n -> D.port ~name:n ~dir:D.Input) (bit_names "in" w)
    @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bit_names "out" w)
  in
  D.module_def ~name:mname ~ports ~insts ()

let structural_cells_of_module (m : D.module_def) = List.length m.D.cells

let generate p =
  assert (p.n_subsystems >= 1 && p.units_per_subsystem >= 1 && p.bus_width >= 1);
  let rng = Util.Rng.create p.seed in
  let w = p.bus_width in
  let n_units = p.n_subsystems * p.units_per_subsystem in
  let macros_per_unit = distribute p.n_macros n_units in
  (* Build one unit module per unit instance (sizes are jittered, and
     distinct module names keep the hierarchy informative); connectors
     between subsystems; the top. *)
  let unit_mods = ref [] in
  let unit_names = Array.make n_units "" in
  let structural = ref 0 in
  for u = 0 to n_units - 1 do
    let mname = Printf.sprintf "%s_unit%d" p.name u in
    let m = unit_module ~p ~rng ~mname ~n_macros:macros_per_unit.(u) ~filler:0 in
    unit_names.(u) <- mname;
    structural := !structural + structural_cells_of_module m;
    unit_mods := m :: !unit_mods
  done;
  let n_conn = max 0 (p.n_subsystems - 1) in
  let conn_cells_estimate = n_conn * 3 * w in
  let structural_total = !structural + conn_cells_estimate in
  let deficit = max 0 (p.target_cells - structural_total) in
  (* Spread filler over connectors (glue between subsystems) and a
     dedicated glue module per subsystem. *)
  let conn_filler = if n_conn > 0 then distribute (deficit / 2) n_conn else [||] in
  let glue_filler = distribute (deficit - (if n_conn > 0 then deficit / 2 else 0)) p.n_subsystems in
  let taps = if p.cross_links > 0 then min w 4 else 0 in
  let conn_mods =
    List.init n_conn (fun k ->
        connector_module ~p
          ~mname:(Printf.sprintf "%s_conn%d" p.name k)
          ~taps ~filler:conn_filler.(k))
  in
  let glue_mods =
    List.init p.n_subsystems (fun k ->
        connector_module ~p
          ~mname:(Printf.sprintf "%s_glue%d" p.name k)
          ~taps:0 ~filler:glue_filler.(k))
  in
  let ss_mods =
    List.init p.n_subsystems (fun s ->
        let unit_mnames =
          List.init p.units_per_subsystem (fun k ->
              unit_names.((s * p.units_per_subsystem) + k))
        in
        subsystem_module ~p ~mname:(Printf.sprintf "%s_ss%d" p.name s) ~unit_mnames)
  in
  (* Top level: pin0 -> ss0 -> conn0 -> ss1 -> ... -> pout0, with a glue
     sidecar per subsystem and extra port arrays tapping the buses. *)
  let bus k = bit_names (Printf.sprintf "tb%d" k) w in
  let top_insts = ref [] in
  let add_inst i = top_insts := i :: !top_insts in
  let n_ss = p.n_subsystems in
  let in_arrays = max 1 (p.port_arrays / 2) in
  let out_arrays = max 1 (p.port_arrays - in_arrays) in
  let pin_nets j = bit_names (Printf.sprintf "pin%d" j) w in
  let pout_nets j = bit_names (Printf.sprintf "pout%d" j) w in
  let bind formals actuals = List.map2 (fun f a -> (f, a)) formals actuals in
  for s = 0 to n_ss - 1 do
    let ins = if s = 0 then pin_nets 0 else bus (2 * s) in
    let outs = bus ((2 * s) + 1) in
    add_inst
      (D.inst ~name:(Printf.sprintf "i_ss%d" s)
         ~module_:(Printf.sprintf "%s_ss%d" p.name s)
         ~bindings:(bind (bit_names "in" w) ins @ bind (bit_names "out" w) outs));
    (* glue sidecar reads the subsystem output *)
    add_inst
      (D.inst ~name:(Printf.sprintf "i_glue%d" s)
         ~module_:(Printf.sprintf "%s_glue%d" p.name s)
         ~bindings:
           (bind (bit_names "in" w) outs
           @ bind (bit_names "out" w) (bit_names (Printf.sprintf "gl%d" s) w)));
    if s < n_ss - 1 then begin
      (* connector to the next subsystem, with cross-link taps from an
         earlier bus *)
      let tap_src = if s = 0 then pin_nets 0 else bus (2 * (s - 1) + 1) in
      let tap_bindings =
        List.init taps (fun t -> (Printf.sprintf "tap_%d" t, List.nth tap_src t))
      in
      add_inst
        (D.inst ~name:(Printf.sprintf "i_conn%d" s)
           ~module_:(Printf.sprintf "%s_conn%d" p.name s)
           ~bindings:
             (bind (bit_names "in" w) (bus ((2 * s) + 1))
             @ bind (bit_names "out" w) (bus ((2 * s) + 2))
             @ tap_bindings))
    end
  done;
  let last_bus = bus ((2 * (n_ss - 1)) + 1) in
  (* output ports *)
  let top_cells = ref [] in
  List.iteri
    (fun i net ->
      top_cells :=
        D.cell ~name:(Printf.sprintf "po_%d" i) ~kind:D.Comb ~area:p.cell_area ~ins:[ net ]
          ~outs:[ List.nth (pout_nets 0) i ] ()
        :: !top_cells)
    last_bus;
  (* extra input arrays feed small top-level comb consumers; extra output
     arrays observe intermediate buses *)
  for j = 1 to in_arrays - 1 do
    List.iteri
      (fun i net ->
        top_cells :=
          D.cell ~name:(Printf.sprintf "pi%d_%d" j i) ~kind:D.Comb ~area:p.cell_area ~ins:[ net ]
            ~outs:[ Printf.sprintf "pisink%d_%d" j i ] ()
          :: !top_cells)
      (pin_nets j)
  done;
  for j = 1 to out_arrays - 1 do
    let src = bus ((2 * (j mod n_ss)) + 1) in
    List.iteri
      (fun i net ->
        top_cells :=
          D.cell ~name:(Printf.sprintf "px%d_%d" j i) ~kind:D.Comb ~area:p.cell_area ~ins:[ net ]
            ~outs:[ List.nth (pout_nets j) i ] ()
          :: !top_cells)
      src
  done;
  let top_ports =
    List.concat
      (List.init in_arrays (fun j ->
           List.map (fun n -> D.port ~name:n ~dir:D.Input) (pin_nets j)))
    @ List.concat
        (List.init out_arrays (fun j ->
             List.map (fun n -> D.port ~name:n ~dir:D.Output) (pout_nets j)))
  in
  let top =
    D.module_def ~name:p.name ~ports:top_ports ~cells:(List.rev !top_cells)
      ~insts:(List.rev !top_insts) ()
  in
  D.design ~top:p.name ~modules:(top :: (ss_mods @ conn_mods @ glue_mods @ List.rev !unit_mods))
