module D = Netlist.Design

(* Shortest decimal that round-trips to the same float. An integral
   value below 1e6 in magnitude, other than -0, is its decimal digits:
   [%.6g] prints exactly those, and it switches to [1e+06] at 1e6. *)
let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e6 && not (f = 0.0 && Float.sign_bit f) then
    string_of_int (int_of_float f)
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    let rec search p = if p > 17 then Printf.sprintf "%.17g" f else
      match try_prec p with Some s -> s | None -> search (p + 1)
    in
    search 6

(* "(in A B ; out C)", either group left out when it has no names *)
let add_pins b ins outs =
  let group keyword names =
    Buffer.add_string b keyword;
    List.iter (fun n -> Buffer.add_char b ' '; Buffer.add_string b n) names
  in
  Buffer.add_char b '(';
  (match ins with [] -> () | _ -> group "in" ins);
  (match outs with [] -> () | _ -> group (match ins with [] -> "out" | _ -> " ; out") outs);
  Buffer.add_char b ')'

let add_number b f =
  Buffer.add_string b (fmt_float f);
  Buffer.add_char b ' '

(* "  KEYWORD NAME [size W H ][area A ](PINS)": the area only where it
   differs from the kind's default. *)
let add_cell b (c : D.cell_decl) =
  Buffer.add_string b "  ";
  Buffer.add_string b (D.kind_name c.D.ckind);
  Buffer.add_char b ' ';
  Buffer.add_string b c.D.cname;
  Buffer.add_char b ' ';
  (match c.D.ckind with
  | D.Macro { D.mw; mh } ->
    Buffer.add_string b "size ";
    add_number b mw;
    add_number b mh
  | D.Flop | D.Comb -> ());
  if c.D.carea <> D.default_area c.D.ckind then begin
    Buffer.add_string b "area ";
    add_number b c.D.carea
  end;
  add_pins b c.D.cins c.D.couts;
  Buffer.add_char b '\n'

let add_all b = List.iter (Buffer.add_string b)

let add_port b (p : D.port_decl) =
  let keyword = match p.D.pdir with D.Input -> "  input " | D.Output -> "  output " in
  add_all b [ keyword; p.D.pname; "\n" ]

let add_inst b (i : D.inst_decl) =
  add_all b [ "  inst "; i.D.iname; " : "; i.D.imodule; " (" ];
  List.iteri
    (fun k (formal, actual) -> add_all b [ (if k > 0 then ", " else ""); formal; " => "; actual ])
    i.D.bindings;
  Buffer.add_string b ")\n"

let add_module b (m : D.module_def) =
  add_all b [ "module "; m.D.mname; " {\n" ];
  List.iter (add_port b) m.D.ports;
  List.iter (add_cell b) m.D.cells;
  List.iter (add_inst b) m.D.insts;
  Buffer.add_string b "}\n"

let to_buffer (d : D.t) =
  let b = Buffer.create 65536 in
  add_all b [ "design "; d.D.top; "\n\n" ];
  List.iter (fun (_, m) -> add_module b m) d.D.modules;
  b

let to_string d = Buffer.contents (to_buffer d)

let write_file path d =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc (to_buffer d))
