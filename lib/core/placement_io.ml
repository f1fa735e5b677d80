module Flat = Netlist.Flat
module Rect = Geom.Rect

type macro_placement = {
  fid : int;
  rect : Rect.t;
  orient : Geom.Orientation.t;
}

type entry = {
  path : string;
  rect : Rect.t;
  orient : Geom.Orientation.t;
}

type t = {
  die : Rect.t;
  entries : entry list;
}

let make ~flat ~die ~placements =
  let entries =
    List.map
      (fun (p : macro_placement) ->
        { path = flat.Flat.nodes.(p.fid).Flat.path; rect = p.rect; orient = p.orient })
      placements
  in
  { die; entries }

let fmt_rect (r : Rect.t) =
  Printf.sprintf "%.6f %.6f %.6f %.6f" r.Rect.x r.Rect.y r.Rect.w r.Rect.h

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "die %s\n" (fmt_rect t.die));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s\n" e.path (fmt_rect e.rect)
           (Geom.Orientation.to_string e.orient)))
    t.entries;
  Buffer.contents buf

let parse_rect parts =
  match List.map float_of_string_opt parts with
  | [ Some x; Some y; Some w; Some h ] when w >= 0.0 && h >= 0.0 ->
    Some (Rect.make ~x ~y ~w ~h)
  | _ -> None

let of_string src =
  let lines =
    String.split_on_char '\n' src
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && not (Util.Names.is_prefix ~prefix:"#" l))
  in
  let fail lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  match lines with
  | [] -> Error "empty placement file"
  | (lineno, header) :: rest ->
    (match String.split_on_char ' ' header |> List.filter (( <> ) "") with
    | "die" :: dims ->
      (match parse_rect dims with
      | None -> fail lineno "malformed die header"
      | Some die ->
        let rec go acc = function
          | [] -> Ok { die; entries = List.rev acc }
          | (lineno, line) :: rest ->
            (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
            | [ path; x; y; w; h; o ] ->
              (match (parse_rect [ x; y; w; h ], Geom.Orientation.of_string o) with
              | Some rect, Some orient -> go ({ path; rect; orient } :: acc) rest
              | None, _ -> fail lineno "malformed rectangle"
              | _, None -> fail lineno ("unknown orientation " ^ o))
            | _ -> fail lineno "expected: path x y w h orientation")
        in
        go [] rest)
    | _ -> fail lineno "expected 'die x y w h' header")

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    of_string src

let resolve flat t =
  let by_path = Hashtbl.create 64 in
  Array.iter
    (fun (n : Flat.node) -> Hashtbl.replace by_path n.Flat.path n)
    flat.Flat.nodes;
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      (match Hashtbl.find_opt by_path e.path with
      | None -> Error (Printf.sprintf "unknown macro path %s" e.path)
      | Some n when not (Flat.is_macro n) ->
        Error (Printf.sprintf "%s is not a macro" e.path)
      | Some n -> go ({ fid = n.Flat.id; rect = e.rect; orient = e.orient } :: acc) rest)
  in
  go [] t.entries
