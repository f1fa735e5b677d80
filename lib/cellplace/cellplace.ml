module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point

type macro_place = {
  fid : int;
  rect : Rect.t;
  orient : Geom.Orientation.t;
}

type t = {
  positions : Point.t array;
  die : Rect.t;
  movable : bool array;
}

type params = {
  iterations : int;
  spread_grid : int;
  smooth_iterations : int;
}

let default_params = { iterations = 30; spread_grid = 16; smooth_iterations = 3 }

let macro_pin_position ~flat ~macros fid ~dir =
  ignore flat;
  match List.find_opt (fun m -> m.fid = fid) macros with
  | None -> None
  | Some m -> Some (Hidap.Flipping.pin_position ~rect:m.rect ~orient:m.orient ~dir)

(* One Jacobi sweep of the star model: every movable cell moves to the
   mean of its nets' pin centroids. [damp] blends with the previous
   position. *)
let relax_sweep ~flat ~pos ~movable ~damp =
  let n = Array.length pos in
  let accx = Array.make n 0.0 and accy = Array.make n 0.0 in
  let cnt = Array.make n 0 in
  Array.iter
    (fun (drivers, sinks) ->
      let pins = Array.append drivers sinks in
      let np = Array.length pins in
      if np >= 2 then begin
        let sx = ref 0.0 and sy = ref 0.0 in
        Array.iter
          (fun fid ->
            let p = pos.(fid) in
            sx := !sx +. p.Point.x;
            sy := !sy +. p.Point.y)
          pins;
        let cx = !sx /. float_of_int np and cy = !sy /. float_of_int np in
        Array.iter
          (fun fid ->
            if movable.(fid) then begin
              accx.(fid) <- accx.(fid) +. cx;
              accy.(fid) <- accy.(fid) +. cy;
              cnt.(fid) <- cnt.(fid) + 1
            end)
          pins
      end)
    flat.Flat.net_pins;
  for fid = 0 to n - 1 do
    if movable.(fid) && cnt.(fid) > 0 then begin
      let nx = accx.(fid) /. float_of_int cnt.(fid) in
      let ny = accy.(fid) /. float_of_int cnt.(fid) in
      let p = pos.(fid) in
      pos.(fid) <-
        Point.make
          ((damp *. nx) +. ((1.0 -. damp) *. p.Point.x))
          ((damp *. ny) +. ((1.0 -. damp) *. p.Point.y))
    end
  done

(* Density-capped local diffusion. The die is divided into an [s] x [s]
   grid; each bin's capacity is its macro-free area times a maximum
   utilization. Cells keep their relaxed positions unless their bin
   overflows, in which case the excess (the cells farthest from the bin
   centre) spills to the nearest bin with spare capacity — locality is
   preserved instead of smearing cells over all the free area. *)
let max_bin_utilization = 0.70

let spread ~flat ~pos ~movable ~die ~macro_rects ~s =
  let cells =
    Array.to_list flat.Flat.nodes
    |> List.filter (fun (nd : Flat.node) -> movable.(nd.Flat.id))
  in
  if cells <> [] then begin
    let bin_w = die.Rect.w /. float_of_int s in
    let bin_h = die.Rect.h /. float_of_int s in
    let bin_rect i j =
      Rect.make
        ~x:(die.Rect.x +. (float_of_int i *. bin_w))
        ~y:(die.Rect.y +. (float_of_int j *. bin_h))
        ~w:bin_w ~h:bin_h
    in
    let cap = Array.make_matrix s s 0.0 in
    for i = 0 to s - 1 do
      for j = 0 to s - 1 do
        let r = bin_rect i j in
        let blocked =
          List.fold_left (fun acc mr -> acc +. Rect.intersection_area r mr) 0.0 macro_rects
        in
        cap.(i).(j) <- max 0.0 (Rect.area r -. blocked) *. max_bin_utilization
      done
    done;
    let bin_of fid =
      let p = pos.(fid) in
      let i = int_of_float ((p.Point.x -. die.Rect.x) /. bin_w) in
      let j = int_of_float ((p.Point.y -. die.Rect.y) /. bin_h) in
      (Util.Stat.clamp_int ~lo:0 ~hi:(s - 1) i, Util.Stat.clamp_int ~lo:0 ~hi:(s - 1) j)
    in
    let members : (int, int list) Hashtbl.t = Hashtbl.create (s * s) in
    let load = Array.make_matrix s s 0.0 in
    let area_of fid = max 1.0 flat.Flat.nodes.(fid).Flat.area in
    List.iter
      (fun (nd : Flat.node) ->
        let fid = nd.Flat.id in
        let i, j = bin_of fid in
        let key = (i * s) + j in
        Hashtbl.replace members key (fid :: (try Hashtbl.find members key with Not_found -> []));
        load.(i).(j) <- load.(i).(j) +. area_of fid)
      cells;
    (* Spill excess cells ring by ring to the nearest bin with spare
       capacity, scanning bins deterministically. *)
    let nearest_free i j =
      let best = ref None in
      let radius = ref 1 in
      while !best = None && !radius < 2 * s do
        let r = !radius in
        for di = -r to r do
          for dj = -r to r do
            if max (abs di) (abs dj) = r then begin
              let ni = i + di and nj = j + dj in
              if ni >= 0 && ni < s && nj >= 0 && nj < s
                 && cap.(ni).(nj) -. load.(ni).(nj) > 0.0
              then
                match !best with
                | None -> best := Some (ni, nj)
                | Some (bi, bj) ->
                  if
                    cap.(ni).(nj) -. load.(ni).(nj)
                    > cap.(bi).(bj) -. load.(bi).(bj)
                  then best := Some (ni, nj)
            end
          done
        done;
        incr radius
      done;
      !best
    in
    for i = 0 to s - 1 do
      for j = 0 to s - 1 do
        if load.(i).(j) > cap.(i).(j) then begin
          let key = (i * s) + j in
          let cells_here = try Hashtbl.find members key with Not_found -> [] in
          let centre = Rect.center (bin_rect i j) in
          (* keep the cells closest to the bin centre *)
          let sorted =
            List.sort
              (fun a b ->
                compare (Point.manhattan pos.(a) centre) (Point.manhattan pos.(b) centre))
              cells_here
          in
          let keep = ref [] and here = ref 0.0 in
          let spill = ref [] in
          List.iter
            (fun fid ->
              let a = area_of fid in
              if !here +. a <= cap.(i).(j) || !keep = [] then begin
                here := !here +. a;
                keep := fid :: !keep
              end
              else spill := fid :: !spill)
            sorted;
          load.(i).(j) <- !here;
          Hashtbl.replace members key !keep;
          List.iter
            (fun fid ->
              match nearest_free i j with
              | None -> () (* no room anywhere: leave in place *)
              | Some (ni, nj) ->
                let a = area_of fid in
                load.(ni).(nj) <- load.(ni).(nj) +. a;
                let nkey = (ni * s) + nj in
                Hashtbl.replace members nkey
                  (fid :: (try Hashtbl.find members nkey with Not_found -> []));
                let r = bin_rect ni nj in
                (* deterministic sub-bin position *)
                let h = (fid * 40503) land 0xFFFF in
                let fx = float_of_int (h land 0xFF) /. 255.0 in
                let fy = float_of_int ((h lsr 8) land 0xFF) /. 255.0 in
                pos.(fid) <-
                  Point.make
                    (r.Rect.x +. (fx *. r.Rect.w))
                    (r.Rect.y +. (fy *. r.Rect.h)))
            (List.rev !spill)
        end
      done
    done
  end

let push_out_of_macros ~pos ~movable ~macro_rects ~die =
  Array.iteri
    (fun fid p ->
      if movable.(fid) then begin
        let p = ref p in
        List.iter
          (fun (r : Rect.t) ->
            if Rect.contains_point r !p then begin
              (* move to the nearest edge of the macro *)
              let dl = (!p).Point.x -. r.Rect.x in
              let dr = r.Rect.x +. r.Rect.w -. (!p).Point.x in
              let db = (!p).Point.y -. r.Rect.y in
              let dt = r.Rect.y +. r.Rect.h -. (!p).Point.y in
              let m = min (min dl dr) (min db dt) in
              p :=
                if m = dl then Point.make (r.Rect.x -. 0.5) (!p).Point.y
                else if m = dr then Point.make (r.Rect.x +. r.Rect.w +. 0.5) (!p).Point.y
                else if m = db then Point.make (!p).Point.x (r.Rect.y -. 0.5)
                else Point.make (!p).Point.x (r.Rect.y +. r.Rect.h +. 0.5)
            end)
          macro_rects;
        let x = Util.Stat.clamp ~lo:die.Rect.x ~hi:(die.Rect.x +. die.Rect.w) (!p).Point.x in
        let y = Util.Stat.clamp ~lo:die.Rect.y ~hi:(die.Rect.y +. die.Rect.h) (!p).Point.y in
        pos.(fid) <- Point.make x y
      end)
    (Array.copy pos)

(* Initial state: ports and macros pinned, movable cells seeded from a
   deterministic jitter around the die centroid. This is also the
   supervisor fallback when the relaxation itself fails — crude but
   finite, in-die, and usable by the evaluation stages. *)
let seed_state ~flat ~macros ~port_pos ~die =
  let n = Array.length flat.Flat.nodes in
  let pos = Array.make n (Rect.center die) in
  let movable = Array.make n false in
  let macro_rect = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace macro_rect m.fid m.rect) macros;
  Array.iter
    (fun (nd : Flat.node) ->
      match nd.Flat.kind with
      | Flat.Kport _ ->
        (match port_pos nd.Flat.id with
        | Some p -> pos.(nd.Flat.id) <- p
        | None -> pos.(nd.Flat.id) <- Point.make die.Rect.x die.Rect.y)
      | Flat.Kmacro _ ->
        (match Hashtbl.find_opt macro_rect nd.Flat.id with
        | Some r -> pos.(nd.Flat.id) <- Rect.center r
        | None -> pos.(nd.Flat.id) <- Rect.center die)
      | Flat.Kflop | Flat.Kcomb ->
        movable.(nd.Flat.id) <- true;
        (* deterministic jitter to break symmetry *)
        let h = (nd.Flat.id * 2654435761) land 0xFFFF in
        let fx = float_of_int (h land 0xFF) /. 255.0 in
        let fy = float_of_int ((h lsr 8) land 0xFF) /. 255.0 in
        pos.(nd.Flat.id) <-
          Point.make
            (die.Rect.x +. (die.Rect.w *. (0.25 +. (0.5 *. fx))))
            (die.Rect.y +. (die.Rect.h *. (0.25 +. (0.5 *. fy)))))
    flat.Flat.nodes;
  (pos, movable)

let run_body ~params ~flat ~macros ~port_pos ~die =
  let n = Array.length flat.Flat.nodes in
  Obs.Span.attr_int "cells" n;
  Obs.Span.attr_int "iterations" params.iterations;
  let pos, movable = seed_state ~flat ~macros ~port_pos ~die in
  for _ = 1 to params.iterations do
    Guard.Budget.check ~stage:"cellplace";
    relax_sweep ~flat ~pos ~movable ~damp:1.0
  done;
  let macro_rects = List.map (fun m -> m.rect) macros in
  spread ~flat ~pos ~movable ~die ~macro_rects ~s:params.spread_grid;
  for _ = 1 to params.smooth_iterations do
    Guard.Budget.check ~stage:"cellplace";
    relax_sweep ~flat ~pos ~movable ~damp:0.25;
    push_out_of_macros ~pos ~movable ~macro_rects ~die
  done;
  { positions = pos; die; movable }

let run ?(params = default_params) ~flat ~macros ~port_pos ~die () =
  Obs.Span.with_ ~name:"cellplace.run" (fun () ->
      Obs.Perf.add Obs.Perf.cellplace_runs 1;
      Guard.Supervisor.protect ~stage:"cellplace.run"
        ~fallback:(fun _ ->
          let positions, movable = seed_state ~flat ~macros ~port_pos ~die in
          { positions; die; movable })
        (fun () ->
          Guard.Fault.hit "cellplace.run";
          run_body ~params ~flat ~macros ~port_pos ~die))

let density_map t ~flat ~macros ~bins =
  let s = bins in
  let die = t.die in
  let grid = Array.make_matrix s s 0.0 in
  let bin_w = die.Rect.w /. float_of_int s and bin_h = die.Rect.h /. float_of_int s in
  let bin_area = bin_w *. bin_h in
  let bin_of (p : Point.t) =
    let i = int_of_float ((p.Point.x -. die.Rect.x) /. bin_w) in
    let j = int_of_float ((p.Point.y -. die.Rect.y) /. bin_h) in
    (Util.Stat.clamp_int ~lo:0 ~hi:(s - 1) i, Util.Stat.clamp_int ~lo:0 ~hi:(s - 1) j)
  in
  Array.iter
    (fun (nd : Flat.node) ->
      match nd.Flat.kind with
      | Flat.Kflop | Flat.Kcomb ->
        let i, j = bin_of t.positions.(nd.Flat.id) in
        grid.(i).(j) <- grid.(i).(j) +. max 1.0 nd.Flat.area
      | Flat.Kmacro _ | Flat.Kport _ -> ())
    flat.Flat.nodes;
  List.iter
    (fun m ->
      for i = 0 to s - 1 do
        for j = 0 to s - 1 do
          let r =
            Rect.make
              ~x:(die.Rect.x +. (float_of_int i *. bin_w))
              ~y:(die.Rect.y +. (float_of_int j *. bin_h))
              ~w:bin_w ~h:bin_h
          in
          grid.(i).(j) <- grid.(i).(j) +. Rect.intersection_area r m.rect
        done
      done)
    macros;
  Array.map (Array.map (fun a -> a /. bin_area)) grid
