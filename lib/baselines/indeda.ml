module Flat = Netlist.Flat
module Rect = Geom.Rect

type ordering =
  | By_area
  | By_connectivity

type placement = {
  fid : int;
  rect : Rect.t;
  orient : Geom.Orientation.t;
}

(* Macro-to-macro connectivity: direct Gseq edges plus one hop through a
   register array (weight = min of the two widths). *)
let macro_adjacency (gseq : Seqgraph.t) =
  let weight : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let bump a b w =
    if a <> b then begin
      let key = if a < b then (a, b) else (b, a) in
      let cur = try Hashtbl.find weight key with Not_found -> 0.0 in
      Hashtbl.replace weight key (cur +. w)
    end
  in
  let is_macro v = Seqgraph.is_macro_node gseq.Seqgraph.nodes.(v) in
  Array.iter
    (fun (e : Seqgraph.edge) ->
      if is_macro e.Seqgraph.src && is_macro e.Seqgraph.dst then
        bump e.Seqgraph.src e.Seqgraph.dst (float_of_int e.Seqgraph.width))
    gseq.Seqgraph.edges;
  Array.iter
    (fun (nd : Seqgraph.node) ->
      match nd.Seqgraph.kind with
      | Seqgraph.Register _ ->
        let ins = Seqgraph.pred_edges gseq nd.Seqgraph.id in
        let outs = Seqgraph.succ_edges gseq nd.Seqgraph.id in
        List.iter
          (fun (ei : Seqgraph.edge) ->
            if is_macro ei.Seqgraph.src then
              List.iter
                (fun (eo : Seqgraph.edge) ->
                  if is_macro eo.Seqgraph.dst then
                    bump ei.Seqgraph.src eo.Seqgraph.dst
                      (0.5 *. float_of_int (min ei.Seqgraph.width eo.Seqgraph.width)))
                outs)
          ins
      | Seqgraph.Macro _ | Seqgraph.Port _ -> ())
    gseq.Seqgraph.nodes;
  weight

(* Greedy connectivity chain: start at the most connected macro, then
   repeatedly pick the unplaced macro with the strongest tie to the
   already-ordered set. *)
let connectivity_order gseq macro_gids =
  let weight = macro_adjacency gseq in
  let w a b = try Hashtbl.find weight (if a < b then (a, b) else (b, a)) with Not_found -> 0.0 in
  let total g = List.fold_left (fun acc o -> acc +. w g o) 0.0 macro_gids in
  match macro_gids with
  | [] -> []
  | _ ->
    let remaining = ref (List.sort (fun a b -> compare (total b) (total a)) macro_gids) in
    let first = List.hd !remaining in
    remaining := List.tl !remaining;
    let order = ref [ first ] in
    while !remaining <> [] do
      let tie g = List.fold_left (fun acc o -> acc +. w g o) 0.0 !order in
      let best =
        List.fold_left
          (fun acc g ->
            match acc with
            | None -> Some (g, tie g)
            | Some (_, bt) when tie g > bt -> Some (g, tie g)
            | Some _ -> acc)
          None !remaining
      in
      let g = match best with Some (g, _) -> g | None -> assert false in
      remaining := List.filter (fun x -> x <> g) !remaining;
      order := g :: !order
    done;
    List.rev !order

(* Pack rectangles around the die walls ring by ring. Along each wall the
   macro's longer side lies on the wall. *)
let wall_pack ~(die : Rect.t) ~spacing sizes =
  let placements = ref [] in
  let inset = ref 0.0 in
  let queue = ref sizes in
  while !queue <> [] do
    let x0 = die.Rect.x +. !inset and y0 = die.Rect.y +. !inset in
    let x1 = die.Rect.x +. die.Rect.w -. !inset and y1 = die.Rect.y +. die.Rect.h -. !inset in
    if x1 -. x0 <= 0.0 || y1 -. y0 <= 0.0 then begin
      (* die full: dump the remainder at the centre *)
      List.iter
        (fun (fid, w, h) ->
          let c = Rect.center die in
          placements :=
            (fid, Rect.make ~x:(c.Geom.Point.x -. (w /. 2.0)) ~y:(c.Geom.Point.y -. (h /. 2.0)) ~w ~h)
            :: !placements)
        !queue;
      queue := []
    end
    else begin
      (* Reserve a corner margin on every wall so strips cannot collide
         where they meet: the deepest remaining macro bounds any strip. *)
      let margin =
        List.fold_left (fun acc (_, w, h) -> max acc (min w h)) 0.0 !queue +. spacing
      in
      let ring_depth = ref 0.0 in
      let place_one fid w h rect =
        placements := (fid, rect) :: !placements;
        ring_depth := max !ring_depth (min w h +. spacing);
        ignore (w, h)
      in
      (* walls: bottom (left->right), right (bottom->top), top
         (right->left), left (top->bottom); each wall keeps [margin]
         clear at both corners it shares with the next walls. *)
      let cursor = ref 0.0 in
      let wall = ref `Bottom in
      let advance len limit = !cursor +. len <= limit +. 1e-9 in
      let rec fill () =
        match !queue with
        | [] -> ()
        | (fid, w, h) :: rest ->
          let along = max w h and depth = min w h in
          let placed =
            match !wall with
            | `Bottom ->
              if advance along (x1 -. x0 -. margin) then begin
                place_one fid along depth
                  (Rect.make ~x:(x0 +. !cursor) ~y:y0 ~w:along ~h:depth);
                cursor := !cursor +. along +. spacing;
                true
              end
              else begin
                wall := `Right;
                cursor := 0.0;
                false
              end
            | `Right ->
              if advance along (y1 -. y0 -. margin) then begin
                place_one fid depth along
                  (Rect.make ~x:(x1 -. depth) ~y:(y0 +. !cursor) ~w:depth ~h:along);
                cursor := !cursor +. along +. spacing;
                true
              end
              else begin
                wall := `Top;
                cursor := 0.0;
                false
              end
            | `Top ->
              if advance along (x1 -. x0 -. margin) then begin
                place_one fid along depth
                  (Rect.make ~x:(x1 -. !cursor -. along) ~y:(y1 -. depth) ~w:along ~h:depth);
                cursor := !cursor +. along +. spacing;
                true
              end
              else begin
                wall := `Left;
                cursor := 0.0;
                false
              end
            | `Left ->
              if advance along (y1 -. y0 -. margin) then begin
                place_one fid depth along
                  (Rect.make ~x:x0 ~y:(y1 -. !cursor -. along) ~w:depth ~h:along);
                cursor := !cursor +. along +. spacing;
                true
              end
              else begin
                wall := `Done;
                false
              end
            | `Done -> false
          in
          if placed then begin
            queue := rest;
            fill ()
          end
          else if !wall <> `Done then fill ()
      in
      fill ();
      (* next ring *)
      inset := !inset +. !ring_depth +. spacing;
      if !ring_depth = 0.0 then inset := !inset +. (0.05 *. min die.Rect.w die.Rect.h)
    end
  done;
  !placements

let place ~flat ~gseq ~die ?(spacing = 2.0) ?(ordering = By_area) () =
  let macro_gids =
    Array.to_list gseq.Seqgraph.nodes
    |> List.filter_map (fun (nd : Seqgraph.node) ->
           match nd.Seqgraph.kind with
           | Seqgraph.Macro _ -> Some nd.Seqgraph.id
           | Seqgraph.Register _ | Seqgraph.Port _ -> None)
  in
  let dims_of gid =
    let fid =
      match gseq.Seqgraph.nodes.(gid).Seqgraph.kind with
      | Seqgraph.Macro fid -> fid
      | Seqgraph.Register _ | Seqgraph.Port _ -> assert false
    in
    match flat.Flat.nodes.(fid).Flat.kind with
    | Flat.Kmacro info -> (info.Netlist.Design.mw, info.Netlist.Design.mh)
    | Flat.Kflop | Flat.Kcomb | Flat.Kport _ -> assert false
  in
  let order =
    match ordering with
    | By_connectivity -> connectivity_order gseq macro_gids
    | By_area ->
      List.sort
        (fun a b ->
          let wa, ha = dims_of a and wb, hb = dims_of b in
          compare (wb *. hb, b) (wa *. ha, a))
        macro_gids
  in
  let sizes =
    List.map
      (fun gid ->
        let fid =
          match gseq.Seqgraph.nodes.(gid).Seqgraph.kind with
          | Seqgraph.Macro fid -> fid
          | Seqgraph.Register _ | Seqgraph.Port _ -> assert false
        in
        match flat.Flat.nodes.(fid).Flat.kind with
        | Flat.Kmacro info -> (fid, info.Netlist.Design.mw, info.Netlist.Design.mh)
        | Flat.Kflop | Flat.Kcomb | Flat.Kport _ -> assert false)
      order
  in
  let raw = wall_pack ~die ~spacing sizes in
  let rects = Array.of_list (List.map snd raw) in
  let rects = Hidap.Legalize.separate ~die ~spacing:0.0 rects in
  List.mapi
    (fun i (fid, _) -> { fid; rect = rects.(i); orient = Geom.Orientation.R0 })
    raw
