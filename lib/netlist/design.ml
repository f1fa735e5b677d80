type direction = Input | Output

type macro_info = { mw : float; mh : float }

type cell_kind =
  | Macro of macro_info
  | Flop
  | Comb

type cell_decl = {
  cname : string;
  ckind : cell_kind;
  carea : float;
  cins : string list;
  couts : string list;
}

type port_decl = { pname : string; pdir : direction }

type inst_decl = {
  iname : string;
  imodule : string;
  bindings : (string * string) list;
}

type module_def = {
  mname : string;
  ports : port_decl list;
  cells : cell_decl list;
  insts : inst_decl list;
}

type t = { top : string; modules : (string * module_def) list }

let make_macro ~w ~h = Macro { mw = w; mh = h }

let default_area = function
  | Macro { mw; mh } -> mw *. mh
  | Flop | Comb -> 1.0

let cell ~name ~kind ?area ~ins ~outs () =
  let carea = match area with Some a -> a | None -> default_area kind in
  { cname = name; ckind = kind; carea; cins = ins; couts = outs }

let port ~name ~dir = { pname = name; pdir = dir }

let inst ~name ~module_ ~bindings = { iname = name; imodule = module_; bindings }

let module_def ~name ?(ports = []) ?(cells = []) ?(insts = []) () =
  { mname = name; ports; cells; insts }

let design ~top ~modules = { top; modules = List.map (fun m -> (m.mname, m)) modules }

let module_lookup t =
  let tbl = Hashtbl.create (List.length t.modules) in
  List.iter (fun (name, m) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name m) t.modules;
  Hashtbl.find_opt tbl

let module_count t = List.length t.modules

let cell_area c = c.carea

let kind_name = function
  | Macro _ -> "macro"
  | Flop -> "flop"
  | Comb -> "comb"
