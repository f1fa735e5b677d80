module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point

type placement = {
  fid : int;
  rect : Rect.t;
  orient : Geom.Orientation.t;
}

type params = {
  moves_per_macro : int;
  seed : int;
  overlap_weight_factor : float;
}

let default_params = { moves_per_macro = 3000; seed = 99; overlap_weight_factor = 8.0 }

(* Dataflow affinity with every macro as its own block and ports fixed —
   the flat view an expert iterates against. *)
let macro_affinity ~gseq ~macro_gids ~port_gids =
  let n = Array.length macro_gids in
  let index = Hashtbl.create n in
  Array.iteri (fun i g -> Hashtbl.replace index g i) macro_gids;
  let block_of_node g = match Hashtbl.find_opt index g with Some i -> i | None -> -1 in
  let gdf = Dataflow.Gdf.build gseq ~n_blocks:n ~block_of_node ~fixed:port_gids in
  Dataflow.Gdf.affinity_matrix gdf ~lambda:0.5 ~k:2 ()

let place ?(params = default_params) ~flat ~gseq ~ports ~die () =
  let macro_gids =
    Array.to_list gseq.Seqgraph.nodes
    |> List.filter_map (fun (nd : Seqgraph.node) ->
           match nd.Seqgraph.kind with
           | Seqgraph.Macro _ -> Some nd.Seqgraph.id
           | Seqgraph.Register _ | Seqgraph.Port _ -> None)
    |> Array.of_list
  in
  let n = Array.length macro_gids in
  if n = 0 then []
  else begin
    let fid_of =
      Array.map
        (fun gid ->
          match gseq.Seqgraph.nodes.(gid).Seqgraph.kind with
          | Seqgraph.Macro fid -> fid
          | Seqgraph.Register _ | Seqgraph.Port _ -> assert false)
        macro_gids
    in
    let dims =
      Array.map
        (fun fid ->
          match flat.Flat.nodes.(fid).Flat.kind with
          | Flat.Kmacro info -> (info.Netlist.Design.mw, info.Netlist.Design.mh)
          | Flat.Kflop | Flat.Kcomb | Flat.Kport _ -> assert false)
        fid_of
    in
    let port_gids = Array.of_list (Hidap.Port_plan.port_nodes ports) in
    let aff = macro_affinity ~gseq ~macro_gids ~port_gids in
    let port_pos =
      Array.map
        (fun gid ->
          match Hidap.Port_plan.gseq_pos ports gid with
          | Some p -> p
          | None -> Rect.center die)
        port_gids
    in
    (* sparse per-macro pair lists *)
    let pairs = Array.make n [] in
    for i = 0 to n - 1 do
      for j = 0 to n + Array.length port_gids - 1 do
        if j <> i then begin
          let w = aff.(i).(j) in
          if w > 1e-12 then pairs.(i) <- (j, w) :: pairs.(i)
        end
      done
    done;
    let rng = Util.Rng.create params.seed in
    (* state: macro centres *)
    let cx = Array.make n 0.0 and cy = Array.make n 0.0 in
    let lo_x i = die.Rect.x +. (fst dims.(i) /. 2.0) in
    let hi_x i = die.Rect.x +. die.Rect.w -. (fst dims.(i) /. 2.0) in
    let lo_y i = die.Rect.y +. (snd dims.(i) /. 2.0) in
    let hi_y i = die.Rect.y +. die.Rect.h -. (snd dims.(i) /. 2.0) in
    for i = 0 to n - 1 do
      cx.(i) <- Util.Rng.float rng die.Rect.w +. die.Rect.x;
      cy.(i) <- Util.Rng.float rng die.Rect.h +. die.Rect.y;
      cx.(i) <- Util.Stat.clamp ~lo:(lo_x i) ~hi:(max (lo_x i) (hi_x i)) cx.(i);
      cy.(i) <- Util.Stat.clamp ~lo:(lo_y i) ~hi:(max (lo_y i) (hi_y i)) cy.(i)
    done;
    let rect_of i =
      let w, h = dims.(i) in
      Rect.make ~x:(cx.(i) -. (w /. 2.0)) ~y:(cy.(i) -. (h /. 2.0)) ~w ~h
    in
    let pos j = if j < n then Point.make cx.(j) cy.(j) else port_pos.(j - n) in
    (* incremental cost pieces *)
    let wl_of i =
      List.fold_left
        (fun acc (j, w) -> acc +. (w *. Point.manhattan (Point.make cx.(i) cy.(i)) (pos j)))
        0.0 pairs.(i)
    in
    let ov_of i =
      let r = rect_of i in
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then acc := !acc +. Rect.intersection_area r (rect_of j)
      done;
      !acc
    in
    let total_wl () =
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. wl_of i
      done;
      (* macro-macro pairs counted twice; ports once — close enough for a
         weight scale, and the SA only ever uses deltas *)
      !acc
    in
    let macro_area =
      Array.fold_left (fun acc (w, h) -> acc +. (w *. h)) 0.0 dims
    in
    let ov_w =
      params.overlap_weight_factor *. max 1e-9 (total_wl ()) /. max 1e-9 macro_area
    in
    (* annealing with incremental deltas *)
    let max_moves = params.moves_per_macro * n in
    let temp = ref 0.0 in
    (* calibrate: sample displacement deltas *)
    let sample_delta () =
      let i = Util.Rng.int rng n in
      let ox = cx.(i) and oy = cy.(i) in
      let before = wl_of i +. (ov_w *. ov_of i) in
      cx.(i) <- Util.Stat.clamp ~lo:(lo_x i) ~hi:(max (lo_x i) (hi_x i))
          (ox +. Util.Rng.gaussian rng ~mean:0.0 ~stddev:(die.Rect.w /. 8.0));
      cy.(i) <- Util.Stat.clamp ~lo:(lo_y i) ~hi:(max (lo_y i) (hi_y i))
          (oy +. Util.Rng.gaussian rng ~mean:0.0 ~stddev:(die.Rect.h /. 8.0));
      let after = wl_of i +. (ov_w *. ov_of i) in
      cx.(i) <- ox;
      cy.(i) <- oy;
      after -. before
    in
    let up = ref 0.0 and nu = ref 0 in
    for _ = 1 to 32 do
      let d = sample_delta () in
      if d > 0.0 then begin
        up := !up +. d;
        incr nu
      end
    done;
    temp := if !nu > 0 then -. (!up /. float_of_int !nu) /. log 0.8 else 1.0;
    let t0 = !temp in
    let moves_per_plateau = max 32 (4 * n) in
    let sigma () = max 2.0 (die.Rect.w /. 4.0 *. (!temp /. t0)) in
    let moves = ref 0 in
    while !moves < max_moves && !temp > 1e-5 *. t0 do
      for _ = 1 to moves_per_plateau do
        if !moves < max_moves then begin
          incr moves;
          if Util.Rng.float rng 1.0 < 0.8 then begin
            (* displace *)
            let i = Util.Rng.int rng n in
            let ox = cx.(i) and oy = cy.(i) in
            let before = wl_of i +. (ov_w *. ov_of i) in
            cx.(i) <- Util.Stat.clamp ~lo:(lo_x i) ~hi:(max (lo_x i) (hi_x i))
                (ox +. Util.Rng.gaussian rng ~mean:0.0 ~stddev:(sigma ()));
            cy.(i) <- Util.Stat.clamp ~lo:(lo_y i) ~hi:(max (lo_y i) (hi_y i))
                (oy +. Util.Rng.gaussian rng ~mean:0.0 ~stddev:(sigma ()));
            let after = wl_of i +. (ov_w *. ov_of i) in
            let delta = after -. before in
            let accept =
              delta <= 0.0 || Util.Rng.float rng 1.0 < exp (-.delta /. !temp)
            in
            if not accept then begin
              cx.(i) <- ox;
              cy.(i) <- oy
            end
          end
          else begin
            (* swap two macro centres *)
            let i = Util.Rng.int rng n and j = Util.Rng.int rng n in
            if i <> j then begin
              let before = wl_of i +. wl_of j +. (ov_w *. (ov_of i +. ov_of j)) in
              let sx = cx.(i) and sy = cy.(i) in
              cx.(i) <- cx.(j); cy.(i) <- cy.(j);
              cx.(j) <- sx; cy.(j) <- sy;
              cx.(i) <- Util.Stat.clamp ~lo:(lo_x i) ~hi:(max (lo_x i) (hi_x i)) cx.(i);
              cy.(i) <- Util.Stat.clamp ~lo:(lo_y i) ~hi:(max (lo_y i) (hi_y i)) cy.(i);
              cx.(j) <- Util.Stat.clamp ~lo:(lo_x j) ~hi:(max (lo_x j) (hi_x j)) cx.(j);
              cy.(j) <- Util.Stat.clamp ~lo:(lo_y j) ~hi:(max (lo_y j) (hi_y j)) cy.(j);
              let after = wl_of i +. wl_of j +. (ov_w *. (ov_of i +. ov_of j)) in
              let delta = after -. before in
              let accept =
                delta <= 0.0 || Util.Rng.float rng 1.0 < exp (-.delta /. !temp)
              in
              if not accept then begin
                cx.(j) <- cx.(i); cy.(j) <- cy.(i);
                cx.(i) <- sx; cy.(i) <- sy
              end
            end
          end
        end
      done;
      temp := !temp *. 0.95
    done;
    (* legalize and orient *)
    let rects = Hidap.Legalize.separate ~die (Array.init n rect_of) in
    (* The oracle never rotates macros, so every base orientation is R0. *)
    let macros =
      Array.to_list
        (Array.mapi (fun i r -> (fid_of.(i), r, Geom.Orientation.R0)) rects)
    in
    let empty_ht = Hashtbl.create 1 in
    (* Flipping needs an HT for register positions; with none available,
       registers default to the die centre, which is adequate for the
       oracle's orientation pass. *)
    let tree = Hier.Tree.build flat in
    let flip =
      Hidap.Flipping.run ~tree ~gseq ~ports ~macros ~ht_rects:empty_ht ~die
        ~config:Hidap.Config.default
    in
    let orient_of = Hashtbl.create n in
    List.iter (fun (fid, o) -> Hashtbl.replace orient_of fid o) flip.Hidap.Flipping.orientations;
    List.map
      (fun (fid, rect, base) ->
        let orient =
          match Hashtbl.find_opt orient_of fid with
          | Some o -> o
          | None -> base
        in
        { fid; rect; orient })
      macros
  end
