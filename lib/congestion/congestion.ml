module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point

type params = {
  bins : int;
  capacity_factor : float;
  macro_porosity : float;
}

let default_params = { bins = 32; capacity_factor = 14.0; macro_porosity = 0.35 }

type result = {
  demand : float array array;
  capacity : float;
  overflow_pct : float;
  overflowed_bins_pct : float;
}

let estimate ?(params = default_params) ~flat ~positions ~die ?(macros = []) () =
  let s = params.bins in
  let demand = Array.make_matrix s s 0.0 in
  let bin_w = die.Rect.w /. float_of_int s and bin_h = die.Rect.h /. float_of_int s in
  let clamp_bin v hi = Util.Stat.clamp_int ~lo:0 ~hi v in
  let idx = flat.Flat.pin_index in
  let off = idx.Flat.off and ids = idx.Flat.ids in
  for k = 0 to Array.length off - 2 do
    let minx = ref infinity and maxx = ref neg_infinity in
    let miny = ref infinity and maxy = ref neg_infinity in
    for q = off.(k) to off.(k + 1) - 1 do
      let p = positions.(ids.(q)) in
      if p.Point.x < !minx then minx := p.Point.x;
      if p.Point.x > !maxx then maxx := p.Point.x;
      if p.Point.y < !miny then miny := p.Point.y;
      if p.Point.y > !maxy then maxy := p.Point.y
    done;
    let hpwl = !maxx -. !minx +. (!maxy -. !miny) in
    (* Nets contained well inside one bin route on local layers and
       do not contribute to global-routing congestion. *)
    if hpwl > 0.5 *. min bin_w bin_h then begin
      let bw = max bin_w (!maxx -. !minx) and bh = max bin_h (!maxy -. !miny) in
      let density = hpwl /. (bw *. bh) in
      let i0 = clamp_bin (int_of_float ((!minx -. die.Rect.x) /. bin_w)) (s - 1) in
      let i1 = clamp_bin (int_of_float ((!maxx -. die.Rect.x) /. bin_w)) (s - 1) in
      let j0 = clamp_bin (int_of_float ((!miny -. die.Rect.y) /. bin_h)) (s - 1) in
      let j1 = clamp_bin (int_of_float ((!maxy -. die.Rect.y) /. bin_h)) (s - 1) in
      for i = i0 to i1 do
        for j = j0 to j1 do
          demand.(i).(j) <- demand.(i).(j) +. (density *. bin_w *. bin_h)
        done
      done
    end
  done;
  (* Routable fraction of each bin: macros block most routing layers but
     keep [macro_porosity] of the tracks. The total routing supply is
     held constant (factor x total demand) and distributed over the
     routable area, so blockage concentrates capacity rather than
     destroying it — a wall-packed macro ring then overflows exactly
     where nets must cross it. *)
  let routable = Array.make_matrix s s 1.0 in
  List.iter
    (fun (m : Rect.t) ->
      for i = 0 to s - 1 do
        for j = 0 to s - 1 do
          let r =
            Rect.make
              ~x:(die.Rect.x +. (float_of_int i *. bin_w))
              ~y:(die.Rect.y +. (float_of_int j *. bin_h))
              ~w:bin_w ~h:bin_h
          in
          let frac = Rect.intersection_area r m /. Rect.area r in
          routable.(i).(j) <-
            max params.macro_porosity
              (routable.(i).(j) -. (frac *. (1.0 -. params.macro_porosity)))
        done
      done)
    macros;
  (* Absolute supply: [capacity_factor] microns of wiring per square
     micron of routable bin area — a property of the die and metal stack,
     identical for every flow on the same circuit. *)
  let capacity = params.capacity_factor *. bin_w *. bin_h in
  let bin_cap =
    Array.init s (fun i -> Array.init s (fun j -> capacity *. routable.(i).(j)))
  in
  let over = ref 0.0 and over_bins = ref 0 and cap_total = ref 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j d ->
          let c = max 0.0 bin_cap.(i).(j) in
          cap_total := !cap_total +. c;
          if d > c then begin
            over := !over +. (d -. c);
            incr over_bins
          end)
        row)
    demand;
  let cap_total = !cap_total in
  { demand;
    capacity;
    overflow_pct = (if cap_total > 0.0 then 100.0 *. !over /. cap_total else 0.0);
    overflowed_bins_pct = 100.0 *. float_of_int !over_bins /. float_of_int (s * s) }
