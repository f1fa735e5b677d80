module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point

type macro_place = Hidap.macro_placement = {
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

(* Per flat node: how many pins it has on the nets of the pin index.
   The relaxation divides by it; it does not depend on positions. *)
let net_degrees (idx : Flat.pin_index) n =
  let deg = Array.make n 0 in
  Array.iter (fun fid -> deg.(fid) <- deg.(fid) + 1) idx.Flat.ids;
  deg

(* One Jacobi sweep of the star model: every movable cell moves to the
   mean of its nets' pin centroids. [damp] blends with the previous
   position. Positions live unboxed in [xs]/[ys]; [accx]/[accy] are
   scratch buffers reused across sweeps. *)
let relax_sweep ~(idx : Flat.pin_index) ~deg ~movable ~xs ~ys ~accx ~accy ~damp =
  let n = Array.length xs in
  Array.fill accx 0 n 0.0;
  Array.fill accy 0 n 0.0;
  let off = idx.Flat.off and ids = idx.Flat.ids in
  for k = 0 to Array.length off - 2 do
    let a = off.(k) and b = off.(k + 1) in
    let sx = ref 0.0 and sy = ref 0.0 in
    for q = a to b - 1 do
      let fid = ids.(q) in
      sx := !sx +. xs.(fid);
      sy := !sy +. ys.(fid)
    done;
    let np = float_of_int (b - a) in
    let cx = !sx /. np and cy = !sy /. np in
    for q = a to b - 1 do
      let fid = ids.(q) in
      if movable.(fid) then begin
        accx.(fid) <- accx.(fid) +. cx;
        accy.(fid) <- accy.(fid) +. cy
      end
    done
  done;
  for fid = 0 to n - 1 do
    if movable.(fid) && deg.(fid) > 0 then begin
      let nx = accx.(fid) /. float_of_int deg.(fid) in
      let ny = accy.(fid) /. float_of_int deg.(fid) in
      xs.(fid) <- (damp *. nx) +. ((1.0 -. damp) *. xs.(fid));
      ys.(fid) <- (damp *. ny) +. ((1.0 -. damp) *. ys.(fid))
    end
  done

(* Density-capped local diffusion. The die is divided into an [s] x [s]
   grid; each bin's capacity is its macro-free area times a maximum
   utilization. Cells keep their relaxed positions unless their bin
   overflows, in which case the excess (the cells farthest from the bin
   centre) spills to the nearest bin with spare capacity — locality is
   preserved instead of smearing cells over all the free area. *)
let max_bin_utilization = 0.70

let spread ~flat ~xs ~ys ~movable ~die ~macro_rects ~s =
  if Array.exists Fun.id movable then begin
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
      let i = int_of_float ((xs.(fid) -. die.Rect.x) /. bin_w) in
      let j = int_of_float ((ys.(fid) -. die.Rect.y) /. bin_h) in
      (Util.Stat.clamp_int ~lo:0 ~hi:(s - 1) i, Util.Stat.clamp_int ~lo:0 ~hi:(s - 1) j)
    in
    (* per bin [i * s + j], its cells, most recently added first *)
    let members = Array.make (s * s) [] in
    let load = Array.make_matrix s s 0.0 in
    let area_of fid = max 1.0 flat.Flat.nodes.(fid).Flat.area in
    Array.iteri
      (fun fid mv ->
        if mv then begin
          let i, j = bin_of fid in
          let key = (i * s) + j in
          members.(key) <- fid :: members.(key);
          load.(i).(j) <- load.(i).(j) +. area_of fid
        end)
      movable;
    (* Spill excess cells ring by ring to the nearest bin with spare
       capacity: the most spare capacity on the nearest ring that has
       any, ties to the first bin in (di, dj) order. [ring] is where the
       search starts; while one bin spills, loads only grow, so a ring
       that had no free bin stays full and the search resumes at the
       last ring found. *)
    let ring = ref 1 in
    let nearest_free i j =
      let best = ref (-1) and best_free = ref 0.0 in
      let visit ni nj =
        let free = cap.(ni).(nj) -. load.(ni).(nj) in
        if free > 0.0 && (!best < 0 || free > !best_free) then begin
          best := (ni * s) + nj;
          best_free := free
        end
      in
      while !best < 0 && !ring < 2 * s do
        let r = !ring in
        for di = max (-r) (-i) to min r (s - 1 - i) do
          let ni = i + di in
          if di = -r || di = r then
            for dj = max (-r) (-j) to min r (s - 1 - j) do
              visit ni (j + dj)
            done
          else begin
            if j - r >= 0 then visit ni (j - r);
            if j + r < s then visit ni (j + r)
          end
        done;
        if !best < 0 then incr ring
      done;
      if !best < 0 then None else Some (!best / s, !best mod s)
    in
    for i = 0 to s - 1 do
      for j = 0 to s - 1 do
        if load.(i).(j) > cap.(i).(j) then begin
          let key = (i * s) + j in
          let centre = Rect.center (bin_rect i j) in
          let dist fid =
            abs_float (xs.(fid) -. centre.Point.x) +. abs_float (ys.(fid) -. centre.Point.y)
          in
          (* keep the cells closest to the bin centre *)
          let sorted = List.sort (fun a b -> compare (dist a) (dist b)) members.(key) in
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
          members.(key) <- !keep;
          ring := 1;
          List.iter
            (fun fid ->
              match nearest_free i j with
              | None -> () (* no room anywhere: leave in place *)
              | Some (ni, nj) ->
                let a = area_of fid in
                load.(ni).(nj) <- load.(ni).(nj) +. a;
                let nkey = (ni * s) + nj in
                members.(nkey) <- fid :: members.(nkey);
                let r = bin_rect ni nj in
                (* deterministic sub-bin position *)
                let h = (fid * 40503) land 0xFFFF in
                let fx = float_of_int (h land 0xFF) /. 255.0 in
                let fy = float_of_int ((h lsr 8) land 0xFF) /. 255.0 in
                xs.(fid) <- r.Rect.x +. (fx *. r.Rect.w);
                ys.(fid) <- r.Rect.y +. (fy *. r.Rect.h))
            (List.rev !spill)
        end
      done
    done
  end

(* The macros bucketed on a [g] x [g] grid over the die: [bins.(b)]
   lists, ascending, the indices of the macros whose bin range covers
   bin [b]. Coordinates map to bins by one monotone formula, so a closed
   rectangle's bin range covers the bin of every point it contains, with
   no epsilon. *)
type macro_grid = {
  rects : Rect.t array;
  g : int;
  ox : float;
  oy : float;
  bw : float;
  bh : float;
  bins : int list array;
}

let grid_cell ~o ~size ~g v =
  let f = (v -. o) /. size in
  if not (f >= 0.0) then 0 else if f >= float_of_int g then g - 1 else int_of_float f

let macro_grid ~macro_rects ~die =
  let rects = Array.of_list macro_rects in
  let g = min 32 (1 + int_of_float (sqrt (float_of_int (Array.length rects)))) in
  let ox = die.Rect.x and oy = die.Rect.y in
  let bw = die.Rect.w /. float_of_int g and bh = die.Rect.h /. float_of_int g in
  let col = grid_cell ~o:ox ~size:bw ~g and row = grid_cell ~o:oy ~size:bh ~g in
  let bins = Array.make (g * g) [] in
  for k = Array.length rects - 1 downto 0 do
    let r = rects.(k) in
    for i = col r.Rect.x to col (r.Rect.x +. r.Rect.w) do
      for j = row r.Rect.y to row (r.Rect.y +. r.Rect.h) do
        bins.((i * g) + j) <- k :: bins.((i * g) + j)
      done
    done
  done;
  { rects; g; ox; oy; bw; bh; bins }

(* Moves the point out of every macro containing it, in list order: each
   macro after the last one pushed out of that contains the current point
   moves it to the nearest edge of that macro, 0.5 outside. The lowest
   such macro is in the point's bin, so the bin's list stands in for the
   whole one. Then the point is clamped to the die. *)
let push_out_cell grid ~die ~xs ~ys fid =
  let x = ref xs.(fid) and y = ref ys.(fid) in
  let last = ref (-1) and moving = ref true in
  while !moving do
    let b =
      (grid_cell ~o:grid.ox ~size:grid.bw ~g:grid.g !x * grid.g)
      + grid_cell ~o:grid.oy ~size:grid.bh ~g:grid.g !y
    in
    let contains k =
      let r = grid.rects.(k) in
      k > !last && !x >= r.Rect.x && !x <= r.Rect.x +. r.Rect.w && !y >= r.Rect.y
      && !y <= r.Rect.y +. r.Rect.h
    in
    match List.find_opt contains grid.bins.(b) with
    | None -> moving := false
    | Some k ->
      let r = grid.rects.(k) in
      let dl = !x -. r.Rect.x in
      let dr = r.Rect.x +. r.Rect.w -. !x in
      let db = !y -. r.Rect.y in
      let dt = r.Rect.y +. r.Rect.h -. !y in
      let m = min (min dl dr) (min db dt) in
      if m = dl then x := r.Rect.x -. 0.5
      else if m = dr then x := r.Rect.x +. r.Rect.w +. 0.5
      else if m = db then y := r.Rect.y -. 0.5
      else y := r.Rect.y +. r.Rect.h +. 0.5;
      last := k
  done;
  xs.(fid) <- Util.Stat.clamp ~lo:die.Rect.x ~hi:(die.Rect.x +. die.Rect.w) !x;
  ys.(fid) <- Util.Stat.clamp ~lo:die.Rect.y ~hi:(die.Rect.y +. die.Rect.h) !y

let push_out_of_macros grid ~die ~xs ~ys ~movable =
  Array.iteri (fun fid mv -> if mv then push_out_cell grid ~die ~xs ~ys fid) movable

let push_out ~macro_rects ~die points =
  let xs = Array.map (fun (p : Point.t) -> p.Point.x) points in
  let ys = Array.map (fun (p : Point.t) -> p.Point.y) points in
  push_out_of_macros (macro_grid ~macro_rects ~die) ~die ~xs ~ys
    ~movable:(Array.make (Array.length points) true);
  Array.init (Array.length points) (fun i -> Point.make xs.(i) ys.(i))

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
  let xs = Array.map (fun (p : Point.t) -> p.Point.x) pos in
  let ys = Array.map (fun (p : Point.t) -> p.Point.y) pos in
  let idx = flat.Flat.pin_index in
  let deg = net_degrees idx n in
  let accx = Array.make n 0.0 and accy = Array.make n 0.0 in
  let relax damp = relax_sweep ~idx ~deg ~movable ~xs ~ys ~accx ~accy ~damp in
  for _ = 1 to params.iterations do
    Guard.Budget.check ~stage:"cellplace";
    relax 1.0
  done;
  let macro_rects = List.map (fun m -> m.rect) macros in
  spread ~flat ~xs ~ys ~movable ~die ~macro_rects ~s:params.spread_grid;
  let grid = macro_grid ~macro_rects ~die in
  for _ = 1 to params.smooth_iterations do
    Guard.Budget.check ~stage:"cellplace";
    relax 0.25;
    push_out_of_macros grid ~die ~xs ~ys ~movable
  done;
  let positions =
    Array.mapi (fun fid p -> if movable.(fid) then Point.make xs.(fid) ys.(fid) else p) pos
  in
  { positions; die; movable }

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
