module D = Netlist.Design

(* Shortest decimal that round-trips to the same float. *)
let fmt_float f =
  let try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  let rec search p = if p > 17 then Printf.sprintf "%.17g" f else
    match try_prec p with Some s -> s | None -> search (p + 1)
  in
  search 6

let add_pins b (ins, outs) =
  let names = String.concat " " in
  match (ins, outs) with
  | [], [] -> Buffer.add_string b "()"
  | ins, [] -> Printf.bprintf b "(in %s)" (names ins)
  | [], outs -> Printf.bprintf b "(out %s)" (names outs)
  | ins, outs -> Printf.bprintf b "(in %s ; out %s)" (names ins) (names outs)

let add_cell b (c : D.cell_decl) =
  let pins = (c.D.cins, c.D.couts) in
  match c.D.ckind with
  | D.Macro { D.mw; mh } ->
    Printf.bprintf b "  macro %s size %s %s %a\n" c.D.cname (fmt_float mw) (fmt_float mh)
      add_pins pins
  | D.Flop when c.D.carea = 1.0 -> Printf.bprintf b "  flop %s %a\n" c.D.cname add_pins pins
  | D.Flop ->
    Printf.bprintf b "  flop %s area %s %a\n" c.D.cname (fmt_float c.D.carea) add_pins pins
  | D.Comb when c.D.carea = 1.0 -> Printf.bprintf b "  comb %s %a\n" c.D.cname add_pins pins
  | D.Comb ->
    Printf.bprintf b "  comb %s area %s %a\n" c.D.cname (fmt_float c.D.carea) add_pins pins

let add_port b (p : D.port_decl) =
  match p.D.pdir with
  | D.Input -> Printf.bprintf b "  input %s\n" p.D.pname
  | D.Output -> Printf.bprintf b "  output %s\n" p.D.pname

let add_inst b (i : D.inst_decl) =
  Printf.bprintf b "  inst %s : %s (%s)\n" i.D.iname i.D.imodule
    (String.concat ", " (List.map (fun (f, a) -> f ^ " => " ^ a) i.D.bindings))

let add_module b (m : D.module_def) =
  Printf.bprintf b "module %s {\n" m.D.mname;
  List.iter (add_port b) m.D.ports;
  List.iter (add_cell b) m.D.cells;
  List.iter (add_inst b) m.D.insts;
  Buffer.add_string b "}\n"

let to_buffer (d : D.t) =
  let b = Buffer.create 65536 in
  Printf.bprintf b "design %s\n\n" d.D.top;
  List.iter (fun (_, m) -> add_module b m) d.D.modules;
  b

let to_string d = Buffer.contents (to_buffer d)

let write_file path d =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc (to_buffer d))
