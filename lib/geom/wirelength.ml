let hpwl_array pins =
  let n = Array.length pins in
  if n < 2 then 0.0
  else begin
    let minx = ref infinity and maxx = ref neg_infinity in
    let miny = ref infinity and maxy = ref neg_infinity in
    for i = 0 to n - 1 do
      let p = pins.(i) in
      if p.Point.x < !minx then minx := p.Point.x;
      if p.Point.x > !maxx then maxx := p.Point.x;
      if p.Point.y < !miny then miny := p.Point.y;
      if p.Point.y > !maxy then maxy := p.Point.y
    done;
    !maxx -. !minx +. (!maxy -. !miny)
  end

let hpwl pins = hpwl_array (Array.of_list pins)

let star pins =
  match pins with
  | [] | [ _ ] -> 0.0
  | _ ->
    let n = float_of_int (List.length pins) in
    let sx = List.fold_left (fun acc p -> acc +. p.Point.x) 0.0 pins in
    let sy = List.fold_left (fun acc p -> acc +. p.Point.y) 0.0 pins in
    let c = Point.make (sx /. n) (sy /. n) in
    List.fold_left (fun acc p -> acc +. Point.manhattan c p) 0.0 pins
