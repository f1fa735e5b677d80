module Rect = Geom.Rect

let floorplan ~die ~rects ?(width = 64) ?(height = 32) () =
  let grid = Array.make_matrix height width ' ' in
  (* die frame *)
  for x = 0 to width - 1 do
    grid.(0).(x) <- '.';
    grid.(height - 1).(x) <- '.'
  done;
  for y = 0 to height - 1 do
    grid.(y).(0) <- '.';
    grid.(y).(width - 1) <- '.'
  done;
  let to_grid (r : Rect.t) =
    let gx v = int_of_float ((v -. die.Rect.x) /. die.Rect.w *. float_of_int width) in
    let gy v = int_of_float ((v -. die.Rect.y) /. die.Rect.h *. float_of_int height) in
    let x0 = Util.Stat.clamp_int ~lo:0 ~hi:(width - 1) (gx r.Rect.x) in
    let x1 = Util.Stat.clamp_int ~lo:0 ~hi:(width - 1) (gx (r.Rect.x +. r.Rect.w) - 1) in
    let y0 = Util.Stat.clamp_int ~lo:0 ~hi:(height - 1) (gy r.Rect.y) in
    let y1 = Util.Stat.clamp_int ~lo:0 ~hi:(height - 1) (gy (r.Rect.y +. r.Rect.h) - 1) in
    (x0, max x0 x1, y0, max y0 y1)
  in
  List.iter
    (fun (label, r) ->
      let c = if String.length label > 0 then label.[0] else '?' in
      let x0, x1, y0, y1 = to_grid r in
      for y = y0 to y1 do
        for x = x0 to x1 do
          grid.(y).(x) <- (if grid.(y).(x) = ' ' || grid.(y).(x) = '.' then c else '#')
        done
      done)
    rects;
  let buf = Buffer.create (width * height) in
  (* top row of the die last in the grid's y order *)
  for y = height - 1 downto 0 do
    for x = 0 to width - 1 do
      Buffer.add_char buf grid.(y).(x)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let ramp = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let density grid ?(width = 48) ?(height = 24) () =
  let nx = Array.length grid in
  if nx = 0 then ""
  else begin
    let ny = Array.length grid.(0) in
    let vmax =
      Array.fold_left (fun acc col -> Array.fold_left max acc col) 1e-12 grid
    in
    let buf = Buffer.create (width * height) in
    for row = height - 1 downto 0 do
      for col = 0 to width - 1 do
        let ix = Util.Stat.clamp_int ~lo:0 ~hi:(nx - 1) (col * nx / width) in
        let iy = Util.Stat.clamp_int ~lo:0 ~hi:(ny - 1) (row * ny / height) in
        let v = grid.(ix).(iy) /. vmax in
        let idx =
          Util.Stat.clamp_int ~lo:0 ~hi:(Array.length ramp - 1)
            (int_of_float (v *. float_of_int (Array.length ramp - 1)))
        in
        Buffer.add_char buf ramp.(idx)
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
  end
