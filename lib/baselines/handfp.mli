(** "handFP" baseline: a proxy for the paper's handcrafted expert
    floorplans.

    Physical designers iterate for weeks directly against the final
    metric; the proxy emulates that with a long flat simulated annealing
    over macro centres, optimizing the measured objective (dataflow-
    weighted macro/port wirelength) with incremental-delta evaluation,
    followed by overlap legalization and orientation flipping. It is the
    quality bar the paper's HiDaP approaches within ~1% of wirelength. *)

type placement = Hidap.macro_placement = {
  fid : int;
  rect : Geom.Rect.t;
  orient : Geom.Orientation.t;
}

type params = {
  moves_per_macro : int;  (** SA budget scale (default 3000) *)
  seed : int;
  overlap_weight_factor : float;
}

val default_params : params

val place :
  ?params:params ->
  flat:Netlist.Flat.t ->
  gseq:Seqgraph.t ->
  ports:Hidap.Port_plan.t ->
  die:Geom.Rect.t ->
  unit ->
  placement list
