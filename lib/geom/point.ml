type t = { x : float; y : float }

let make x y = { x; y }

let origin = { x = 0.0; y = 0.0 }

let add a b = { x = a.x +. b.x; y = a.y +. b.y }

let sub a b = { x = a.x -. b.x; y = a.y -. b.y }

let scale k p = { x = k *. p.x; y = k *. p.y }

let manhattan a b = abs_float (a.x -. b.x) +. abs_float (a.y -. b.y)

let euclidean a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let equal a b = a.x = b.x && a.y = b.y

let pp ppf p = Format.fprintf ppf "(%.3f, %.3f)" p.x p.y
