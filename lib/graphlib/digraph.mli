(** Directed graphs over dense integer node ids, stored as compressed
    sparse rows.

    The netlist graph Gnet is stored in this representation; it favours
    cheap traversal (the paper's dataflow inference is traversal-bound
    on graphs with up to 10^7 vertices). A graph is built once, from
    its edge list, into flat forward and backward offset and target
    arrays, and never changes after: it can be read from several
    domains at once. *)

type t

val of_edges : int -> src:int array -> dst:int array -> t
(** [of_edges n ~src ~dst] makes the graph on nodes [0 .. n-1] with one
    directed edge [src.(e) -> dst.(e)] per index [e]. Parallel edges and
    self-loops are kept (parallel edges model multi-bit connections).
    Raises [Invalid_argument] if the arrays differ in length or name a
    node outside [0 .. n-1]. *)

val rows : int -> key:int array -> value:int array -> int array * int array
(** [rows n ~key ~value] groups [value] by [key], a stable counting sort
    into compressed sparse rows: returns [(off, vals)] where the values
    with key [k] in [0 .. n-1] are [vals.(off.(k)) .. vals.(off.(k+1) - 1)],
    in index order. The graph stores its successors and predecessors
    this way. *)

val node_count : t -> int

val edge_count : t -> int

val succ : t -> int -> int list
(** Successors in edge order. *)

val pred : t -> int -> int list
(** Predecessors in edge order. *)

val succ_iter : t -> int -> (int -> unit) -> unit
(** Allocation-free successor iteration. *)

val pred_iter : t -> int -> (int -> unit) -> unit

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val transpose : t -> t
(** Every edge reversed; the edges of the result are those of [g] taken
    node by node in successor order. *)

val map_nodes : t -> keep:(int -> bool) -> t * int array * int array
(** [map_nodes g ~keep] builds the subgraph induced by the kept nodes.
    Returns [(sub, old_of_new, new_of_old)]; [new_of_old.(v) = -1] for
    dropped nodes. Edges incident to dropped nodes vanish; the others
    keep their order. *)
