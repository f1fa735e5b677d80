(** "IndEDA" baseline: a proxy for the commercial floorplanner the paper
    compares against.

    Macros are packed against the die walls ("de facto the chosen
    approach for some industrial floorplanning tools", paper §I).
    The default ordering is area-driven (largest first) — blind to
    hierarchy, connectivity and dataflow, like the commercial packers the
    paper measures against. A connectivity-chain ordering is available
    for the ablation bench: it walks the perimeter following the
    strongest macro-to-macro ties, which flatters the baseline on
    chain-topology designs. Additional rings are opened toward the
    centre when the perimeter fills up; macros keep their reference
    orientation. *)

type ordering =
  | By_area  (** commercial-packer proxy (default) *)
  | By_connectivity  (** greedy strongest-tie chain over Gseq *)

type placement = Hidap.macro_placement = {
  fid : int;
  rect : Geom.Rect.t;
  orient : Geom.Orientation.t;
}

val connectivity_order : Seqgraph.t -> int list -> int list
(** Greedy strongest-tie ordering of macro Gseq node ids (exposed for
    tests and the ablation bench). *)

val place :
  flat:Netlist.Flat.t ->
  gseq:Seqgraph.t ->
  die:Geom.Rect.t ->
  ?spacing:float ->
  ?ordering:ordering ->
  unit ->
  placement list
