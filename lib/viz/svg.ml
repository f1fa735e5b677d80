module Rect = Geom.Rect
module Point = Geom.Point

type style = {
  fill : string;
  stroke : string;
  opacity : float;
}

let macro_style = { fill = "#5b7aa9"; stroke = "#1f2f4a"; opacity = 0.95 }
let block_style = { fill = "#8fb58f"; stroke = "#2f4a2f"; opacity = 0.55 }
let glue_style = { fill = "#d9d2b8"; stroke = "#8a8468"; opacity = 0.45 }

let palette =
  [| "#5b7aa9"; "#a95b5b"; "#5ba98e"; "#a9885b"; "#8a5ba9"; "#5b9aa9"; "#a95b88";
     "#7ba95b" |]

let header ~w ~h =
  Printf.sprintf
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">\n"
    w h w h

let floorplan ~die ~rects ?(arrows = []) ?(size = 640) () =
  let scale = float_of_int size /. die.Rect.w in
  let hpx = int_of_float (die.Rect.h *. scale) in
  let tx x = (x -. die.Rect.x) *. scale in
  let ty y = float_of_int hpx -. ((y -. die.Rect.y) *. scale) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header ~w:size ~h:hpx);
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"#fafafa\" stroke=\"#333\"/>\n"
       size hpx);
  List.iter
    (fun (label, (r : Rect.t), st) ->
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"%s\" \
            stroke=\"%s\" fill-opacity=\"%.2f\"/>\n"
           (tx r.Rect.x)
           (ty (r.Rect.y +. r.Rect.h))
           (r.Rect.w *. scale) (r.Rect.h *. scale) st.fill st.stroke st.opacity);
      if label <> "" then
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" fill=\"#222\" \
              text-anchor=\"middle\">%s</text>\n"
             (tx (r.Rect.x +. (r.Rect.w /. 2.0)))
             (ty (r.Rect.y +. (r.Rect.h /. 2.0)))
             label))
    rects;
  List.iter
    (fun ((a : Point.t), (b : Point.t), w) ->
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#c03030\" \
            stroke-width=\"%.2f\" stroke-opacity=\"0.7\"/>\n"
           (tx a.Point.x) (ty a.Point.y) (tx b.Point.x) (ty b.Point.y)
           (Util.Stat.clamp ~lo:0.5 ~hi:8.0 w)))
    arrows;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let dataflow_diagram ~die ~blocks ~affinity ?(size = 640) () =
  let rects =
    List.mapi
      (fun i (name, r, macro_count) ->
        let base = palette.(i mod Array.length palette) in
        let st =
          if macro_count > 0 then { fill = base; stroke = "#222"; opacity = 0.85 }
          else { glue_style with stroke = "#555" }
        in
        let label = Printf.sprintf "%s (%d)" name macro_count in
        (label, r, st))
      blocks
  in
  let n = List.length blocks in
  let centers = Array.of_list (List.map (fun (_, r, _) -> Rect.center r) blocks) in
  let vmax =
    let m = ref 1e-12 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if affinity.(i).(j) > !m then m := affinity.(i).(j)
      done
    done;
    !m
  in
  let arrows = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = affinity.(i).(j) in
      if a > 0.02 *. vmax then
        arrows := (centers.(i), centers.(j), 8.0 *. a /. vmax) :: !arrows
    done
  done;
  floorplan ~die ~rects ~arrows:!arrows ~size ()

let floorplan_levels ~die ~levels ?(macros = []) ?(size = 320) () =
  let max_depth =
    List.fold_left
      (fun acc (l : Hidap.Floorplan.level_info) -> max acc l.Hidap.Floorplan.depth)
      (-1) levels
  in
  let snapshot depth =
    let rects =
      List.filter_map
        (fun (l : Hidap.Floorplan.level_info) ->
          if l.Hidap.Floorplan.depth = depth then
            Some
              ( (if l.Hidap.Floorplan.macro_count > 0 then
                   string_of_int l.Hidap.Floorplan.macro_count
                 else "c"),
                l.Hidap.Floorplan.rect,
                if l.Hidap.Floorplan.macro_count > 0 then block_style else glue_style )
          else None)
        levels
    in
    (depth, floorplan ~die ~rects ~size ())
  in
  let per_level = List.init (max_depth + 1) snapshot in
  match macros with
  | [] -> per_level
  | _ ->
    let rects = List.map (fun (label, r) -> (label, r, macro_style)) macros in
    per_level @ [ (max_depth + 1, floorplan ~die ~rects ~size ()) ]

(* Labels come from user netlists, so escape them for XML. *)
let xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let contribution_heatmap ~labels ~values ?(cell = 36) () =
  let n = Array.length labels in
  let margin = 110 in
  let size = margin + (n * cell) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header ~w:size ~h:size);
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" fill=\"#fafafa\"/>\n" size size);
  if n > 0 then begin
    let vmax =
      Array.fold_left (fun acc row -> Array.fold_left max acc row) 1e-12 values
    in
    let fc = float_of_int cell in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let v = Util.Stat.clamp ~lo:0.0 ~hi:1.0 (values.(i).(j) /. vmax) in
        let shade = int_of_float (255.0 *. (1.0 -. (0.92 *. v))) in
        let x = float_of_int (margin + (j * cell)) in
        let y = float_of_int (margin + (i * cell)) in
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
              fill=\"rgb(%d,%d,255)\" stroke=\"#ddd\"><title>%s × %s: %.4g</title></rect>\n"
             x y fc fc shade shade (xml_escape labels.(i)) (xml_escape labels.(j))
             values.(i).(j))
      done
    done;
    (* row labels on the left, column labels rotated on top *)
    Array.iteri
      (fun i label ->
        let l = xml_escape label in
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%d\" y=\"%.1f\" font-size=\"10\" fill=\"#222\" \
              text-anchor=\"end\">%s</text>\n"
             (margin - 6)
             (float_of_int (margin + (i * cell)) +. (fc /. 2.0) +. 3.0)
             l);
        let cx = float_of_int (margin + (i * cell)) +. (fc /. 2.0) in
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%.1f\" y=\"%d\" font-size=\"10\" fill=\"#222\" \
              text-anchor=\"start\" transform=\"rotate(-60 %.1f %d)\">%s</text>\n"
             cx (margin - 6) cx (margin - 6) l))
      labels
  end;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
