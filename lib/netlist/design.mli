(** Hierarchical netlist data model.

    A design is a set of module definitions plus a top module name. Each
    module declares single-bit ports (multi-bit buses are carried as
    indexed names such as [data[7]] or [data_7], exactly the RTL-stage
    array information the paper exploits), leaf cells (macros, flops,
    combinational gates) and instances of other modules. Nets are local
    names; instance port bindings stitch them across hierarchy levels.

    This module builds and reads designs; it checks nothing. The
    structural checks (missing, duplicate and recursive modules,
    duplicate cells, instances and ports, unknown bindings, bad areas)
    are [Guard.Validate.design]'s. *)

type direction = Input | Output

type macro_info = { mw : float; mh : float }
(** Physical footprint of a hard macro, in microns. *)

type cell_kind =
  | Macro of macro_info
  | Flop
  | Comb

type cell_decl = {
  cname : string;
  ckind : cell_kind;
  carea : float;  (** placement area; for macros this is [mw *. mh] *)
  cins : string list;  (** input net names *)
  couts : string list;  (** output net names *)
}

type port_decl = { pname : string; pdir : direction }

type inst_decl = {
  iname : string;
  imodule : string;
  bindings : (string * string) list;  (** (formal port, actual net) *)
}

type module_def = {
  mname : string;
  ports : port_decl list;
  cells : cell_decl list;
  insts : inst_decl list;
}

type t = { top : string; modules : (string * module_def) list }

val make_macro : w:float -> h:float -> cell_kind
(** Macro kind with area [w *. h]. *)

val cell : name:string -> kind:cell_kind -> ?area:float ->
  ins:string list -> outs:string list -> unit -> cell_decl
(** Leaf-cell declaration; [area] defaults to the macro footprint for
    macros and to 1.0 for flops / combinational cells. *)

val port : name:string -> dir:direction -> port_decl

val inst : name:string -> module_:string -> bindings:(string * string) list -> inst_decl

val module_def : name:string -> ?ports:port_decl list -> ?cells:cell_decl list ->
  ?insts:inst_decl list -> unit -> module_def

val design : top:string -> modules:module_def list -> t

val default_area : cell_kind -> float
(** The area [cell] assigns when none is given: the macro footprint for
    macros, 1.0 for flops / combinational cells. *)

val module_lookup : t -> string -> module_def option
(** [module_lookup d] builds a name -> module table once and returns its
    lookup: the first definition of a name wins. Apply it to [d] once
    and keep the function for repeated lookups. *)

val module_count : t -> int

val cell_area : cell_decl -> float

val kind_name : cell_kind -> string
