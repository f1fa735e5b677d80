module Tree = Hier.Tree
module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point
module Orientation = Geom.Orientation

(* Pin offset from the placed macro's lower-left corner, for a macro
   whose library (R0) footprint is [w] x [h]; for a dim-swapping
   [orient] the offset lives in the rotated [h] x [w] footprint. *)
let pin_offset ~orient ~w ~h ~dir =
  let base =
    match dir with
    | `In -> Point.make 0.0 (h /. 2.0)  (* west face centre *)
    | `Out -> Point.make w (h /. 2.0)  (* east face centre *)
  in
  Orientation.apply_offset orient ~w ~h base

let pin_position ~rect ~orient ~dir =
  (* [pin_offset] works in the library (R0) frame: for a dim-swapping
     orientation the placed rect is [h0 x w0], so the library footprint
     is recovered by swapping back. *)
  let w, h =
    if Orientation.swaps_dims orient then (rect.Rect.h, rect.Rect.w)
    else (rect.Rect.w, rect.Rect.h)
  in
  let off = pin_offset ~orient ~w ~h ~dir in
  Point.make (rect.Rect.x +. off.Point.x) (rect.Rect.y +. off.Point.y)

type result = {
  orientations : (int * Orientation.t) list;
  gain : float;
}

(* Position of a Gseq node from the finished floorplan: macros at their
   placed centre, ports on the boundary, registers at the centre of the
   deepest block rectangle containing them. *)
let node_position ~tree ~gseq ~ports ~macro_rect ~ht_rects ~die gid =
  let nd = gseq.Seqgraph.nodes.(gid) in
  match nd.Seqgraph.kind with
  | Seqgraph.Macro fid ->
    (match macro_rect fid with Some r -> Rect.center r | None -> Rect.center die)
  | Seqgraph.Port _ ->
    (match Port_plan.gseq_pos ports gid with Some p -> p | None -> Rect.center die)
  | Seqgraph.Register (fid :: _) ->
    let rec up ht =
      if ht < 0 then Rect.center die
      else
        match Hashtbl.find_opt ht_rects ht with
        | Some r -> Rect.center r
        | None -> up (Tree.node tree ht).Tree.parent
    in
    up (Tree.ht_node_of_flat tree fid)
  | Seqgraph.Register [] -> Rect.center die

let run_body ~tree ~gseq ~ports ~macros ~ht_rects ~die ~config =
  ignore config;
  Obs.Span.attr_int "macros" (List.length macros);
  let rect_of = Hashtbl.create (List.length macros) in
  List.iter (fun (fid, r, _) -> Hashtbl.replace rect_of fid r) macros;
  let macro_rect fid = Hashtbl.find_opt rect_of fid in
  let position = node_position ~tree ~gseq ~ports ~macro_rect ~ht_rects ~die in
  let gain = ref 0.0 in
  let orientations =
    List.map
      (fun (fid, rect, base) ->
        Guard.Budget.check ~stage:"flipping";
        match gseq.Seqgraph.of_flat.(fid) with
        | -1 -> (fid, base)
        | gid ->
          let pulls =
            List.map
              (fun (e : Seqgraph.edge) -> (`In, float_of_int e.Seqgraph.width, position e.Seqgraph.src))
              (Seqgraph.pred_edges gseq gid)
            @ List.map
                (fun (e : Seqgraph.edge) ->
                  (`Out, float_of_int e.Seqgraph.width, position e.Seqgraph.dst))
                (Seqgraph.succ_edges gseq gid)
          in
          let cost orient =
            List.fold_left
              (fun acc (dir, w, p) ->
                acc +. (w *. Point.manhattan (pin_position ~rect ~orient ~dir) p))
              0.0 pulls
          in
          let square = abs_float (rect.Rect.w -. rect.Rect.h) < 1e-9 in
          (* Candidates must preserve the placed footprint: all eight
             orientations for a square macro, otherwise the four in the
             base orientation's dim-swap class (so a macro rotated by
             the floorplanner stays rotated, only flipped). *)
          let candidates =
            if square then Orientation.all
            else if Orientation.swaps_dims base then Orientation.rotating
            else Orientation.non_rotating
          in
          let base_cost = cost base in
          let best, best_cost =
            Array.fold_left
              (fun (bo, bc) o ->
                let c = cost o in
                if c < bc -. 1e-12 then (o, c) else (bo, bc))
              (base, base_cost) candidates
          in
          gain := !gain +. (base_cost -. best_cost);
          (fid, best))
      macros
  in
  Obs.Perf.gauge "flipping.gain" !gain;
  { orientations; gain = !gain }

let run ~tree ~gseq ~ports ~macros ~ht_rects ~die ~config =
  Obs.Span.with_ ~name:"flipping.run" (fun () ->
      (* Flipping is a pure gain post-process: on failure the base
         orientations from the floorplanner stand, which every
         downstream consumer already handles (an empty orientation list
         means "no overrides"). *)
      Guard.Supervisor.protect ~stage:"flipping.run"
        ~fallback:(fun _ -> { orientations = []; gain = 0.0 })
        (fun () ->
          Guard.Fault.hit "flipping.run";
          run_body ~tree ~gseq ~ports ~macros ~ht_rects ~die ~config))
