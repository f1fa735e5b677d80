(** Hierarchy tree HT (paper §II-C).

    Nodes represent levels of the RTL hierarchy. Every module instance
    (scope) is a node; in addition each hard macro is a leaf node of its
    scope ("at the leaf nodes of HT, the associated shape curve contains
    the possible shapes of its macro", §IV-A), and the standard cells
    declared directly in a scope are grouped into one synthetic glue leaf
    so that opening a scope never loses area. *)

type kind =
  | Scope of int  (** scope id in the flat netlist *)
  | Macro_cell of int  (** flat node id of a hard macro *)
  | Glue of int  (** direct standard cells of the given scope id *)

type node = {
  id : int;
  kind : kind;
  parent : int;  (** [-1] for the root *)
  children : int list;
  area : float;  (** total cell area (macros + std) in the subtree *)
  macro_count : int;  (** number of macros in the subtree *)
  name : string;  (** hierarchical name for reporting *)
}

type t

val build : Netlist.Flat.t -> t
(** Derive HT from the elaborated netlist. *)

val flat : t -> Netlist.Flat.t

val root : t -> int

val node : t -> int -> node

val node_count : t -> int

val area : t -> int -> float
(** Subtree cell area of a node — the paper's [area(n)]. *)

val macro_count : t -> int -> int
(** The paper's [macro_count(n)]. *)

val children : t -> int -> int list

val macros_below : t -> int -> int list
(** Flat node ids of all macros in the subtree, in increasing id order. *)

val cells_below : t -> int -> int list
(** Flat node ids of all leaf cells (macros + flops + combs) in the
    subtree. *)

val ht_node_of_flat : t -> int -> int
(** The HT leaf holding a given flat cell: its macro leaf for macros, the
    glue leaf of its scope otherwise. Raises [Invalid_argument] for
    ports. *)

val is_ancestor : t -> ancestor:int -> int -> bool
(** Reflexive ancestry test. *)

val depth : t -> int -> int
