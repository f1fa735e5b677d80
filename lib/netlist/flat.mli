(** Elaboration of a hierarchical netlist into the flat bit-level netlist
    graph Gnet (paper Table I).

    Every leaf cell of every module instance becomes one node; every
    top-level port becomes one node. Directed edges follow signal flow:
    net driver -> net sink. The instance tree is preserved as the scope
    table, from which the hierarchy tree HT is derived. *)

type node_kind =
  | Kmacro of Design.macro_info
  | Kflop
  | Kcomb
  | Kport of Design.direction

type node = {
  id : int;
  path : string;  (** full hierarchical name, e.g. [u_core/u_alu/acc_3] *)
  base : string;  (** leaf name, used for array clustering *)
  kind : node_kind;
  area : float;
  scope : int;  (** owning scope id; top-level ports use scope 0 *)
}

type scope = {
  sid : int;
  spath : string;  (** hierarchical instance path; [""] for top *)
  smodule : string;
  sparent : int;  (** [-1] for the top scope *)
  mutable schildren : int list;
  mutable scells : int list;  (** node ids of leaf cells directly in this scope *)
}

(** The nets with two or more pins, in [net_pins] order, as flat arrays
    (compressed sparse rows): listed net [k] has the pins
    [ids.(off.(k)) .. ids.(off.(k + 1) - 1)], drivers then sinks in
    [net_pins] order, and its sinks start at [ids.(first_sink.(k))].
    Nets with fewer than two pins are left out. *)
type pin_index = {
  off : int array;  (** length = listed nets + 1 *)
  first_sink : int array;  (** length = listed nets *)
  ids : int array;
}

type t = {
  design_name : string;
  nodes : node array;
  scopes : scope array;
  gnet : Graphlib.Digraph.t;
  net_count : int;
  net_pins : (int array * int array) array;
      (** per net: (driver node ids, sink node ids) *)
  pin_index : pin_index;  (** [net_pins] as flat arrays, built once *)
}

val elaborate : Design.t -> t
(** Flatten the design.

    Precondition: [Guard.Validate.design] accepts the design without
    repairs. Elaboration checks only what it cannot proceed past: it
    raises [Invalid_argument] for a missing module (the top included)
    and for a module that instantiates itself, directly or through
    others. A name defined twice resolves to its first definition. *)

val is_macro : node -> bool
val is_flop : node -> bool
val is_comb : node -> bool
val is_port : node -> bool

val macros : t -> node list
(** All macro nodes, in id order. *)

val ports : t -> node list

val macro_count : t -> int

val cell_count : t -> int
(** Leaf cells (macros + flops + combs), excluding ports. *)

val total_cell_area : t -> float

val scope_of_node : t -> int -> scope

val pp_summary : Format.formatter -> t -> unit
