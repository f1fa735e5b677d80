type t = { x : float; y : float; w : float; h : float }

let make ~x ~y ~w ~h =
  assert (w >= 0.0 && h >= 0.0);
  { x; y; w; h }

let area r = r.w *. r.h

let center r = Point.make (r.x +. (r.w /. 2.0)) (r.y +. (r.h /. 2.0))

let contains_point r (p : Point.t) =
  p.Point.x >= r.x && p.Point.x <= r.x +. r.w && p.Point.y >= r.y && p.Point.y <= r.y +. r.h

let eps = 1e-6

let contains_rect ~outer ~inner =
  inner.x >= outer.x -. eps
  && inner.y >= outer.y -. eps
  && inner.x +. inner.w <= outer.x +. outer.w +. eps
  && inner.y +. inner.h <= outer.y +. outer.h +. eps

let overlaps a b =
  a.x +. a.w > b.x +. eps
  && b.x +. b.w > a.x +. eps
  && a.y +. a.h > b.y +. eps
  && b.y +. b.h > a.y +. eps

let intersection_area a b =
  let ox = min (a.x +. a.w) (b.x +. b.w) -. max a.x b.x in
  let oy = min (a.y +. a.h) (b.y +. b.h) -. max a.y b.y in
  if ox > 0.0 && oy > 0.0 then ox *. oy else 0.0

let grid_cell ~o ~size ~bins v =
  let f = (v -. o) /. size in
  if not (f >= 0.0) then 0 else if f >= float_of_int bins then bins - 1 else int_of_float f

let grid_range r ~grid ~bins =
  let span o size a b =
    (max 0 (grid_cell ~o ~size ~bins a - 1), min (bins - 1) (grid_cell ~o ~size ~bins b + 1))
  in
  let i0, i1 = span grid.x (grid.w /. float_of_int bins) r.x (r.x +. r.w) in
  let j0, j1 = span grid.y (grid.h /. float_of_int bins) r.y (r.y +. r.h) in
  (i0, i1, j0, j1)

let inset r m =
  let w = max 0.0 (r.w -. (2.0 *. m)) and h = max 0.0 (r.h -. (2.0 *. m)) in
  { x = r.x +. m; y = r.y +. m; w; h }

let aspect_ratio r =
  if r.w <= 0.0 || r.h <= 0.0 then infinity else max (r.w /. r.h) (r.h /. r.w)

let split_v r frac =
  assert (frac >= 0.0 && frac <= 1.0);
  let wl = r.w *. frac in
  ({ r with w = wl }, { r with x = r.x +. wl; w = r.w -. wl })

let split_h r frac =
  assert (frac >= 0.0 && frac <= 1.0);
  let hb = r.h *. frac in
  ({ r with h = hb }, { r with y = r.y +. hb; h = r.h -. hb })

let corners r =
  [| Point.make r.x r.y;
     Point.make (r.x +. r.w) r.y;
     Point.make (r.x +. r.w) (r.y +. r.h);
     Point.make r.x (r.y +. r.h) |]

let equal a b = a.x = b.x && a.y = b.y && a.w = b.w && a.h = b.h

let pp ppf r = Format.fprintf ppf "[%.3f,%.3f %.3fx%.3f]" r.x r.y r.w r.h
