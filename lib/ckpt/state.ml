module Jsonx = Obs.Jsonx
module Rect = Geom.Rect

let schema = "hidap-ckpt-state"

(* Payload schema version; bump on any incompatible layout change
   (DESIGN.md section 11 has the bump rules). *)
let version = 1

type fingerprint = {
  circuit : string;
  seed : int;
  lambda : float;
  sa_starts : int;
  cells : int;
  macro_count : int;
}

type instance_entry = {
  nh : int;
  depth : int;
  n_blocks : int;
  rects : Rect.t array;
  sa_moves : int;
  rng_after : int64;
}

type flip_entry = {
  orientations : (int * Geom.Orientation.t) list;
  flip_gain : float;
}

type t = {
  fp : fingerprint;
  instances : instance_entry list;  (** completion order *)
  flip : flip_entry option;
  stages : string list;  (** completed stage boundaries, in order *)
}

let empty fp = { fp; instances = []; flip = None; stages = [] }

(* ---- bit-exact floats ---------------------------------------------- *)

(* Resume must reproduce an uninterrupted run bit for bit, so floats are
   stored as the hex image of their IEEE-754 bits: decimal round-trips
   ("%.17g") are exact too, but bits are unambiguous, locale-proof, and
   make torn-state debugging greppable. *)
let float_json f = Jsonx.String (Printf.sprintf "%Lx" (Int64.bits_of_float f))

let float_of_json = function
  | Jsonx.String s ->
    (match Int64.of_string_opt ("0x" ^ s) with
    | Some bits -> Some (Int64.float_of_bits bits)
    | None -> None)
  | Jsonx.Int i -> Some (float_of_int i)
  | _ -> None

let float_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let rect_json (r : Rect.t) =
  Jsonx.List [ float_json r.Rect.x; float_json r.Rect.y; float_json r.Rect.w; float_json r.Rect.h ]

let rect_of_json = function
  | Jsonx.List [ x; y; w; h ] ->
    (match (float_of_json x, float_of_json y, float_of_json w, float_of_json h) with
    | Some x, Some y, Some w, Some h -> Some (Rect.make ~x ~y ~w ~h)
    | _ -> None)
  | _ -> None

let rect_equal a b =
  float_equal a.Rect.x b.Rect.x
  && float_equal a.Rect.y b.Rect.y
  && float_equal a.Rect.w b.Rect.w
  && float_equal a.Rect.h b.Rect.h

(* ---- equality ------------------------------------------------------ *)

let fingerprint_equal a b =
  a.circuit = b.circuit && a.seed = b.seed
  && float_equal a.lambda b.lambda
  && a.sa_starts = b.sa_starts && a.cells = b.cells && a.macro_count = b.macro_count

let instance_equal a b =
  a.nh = b.nh && a.depth = b.depth && a.n_blocks = b.n_blocks
  && Array.length a.rects = Array.length b.rects
  && Array.for_all2 rect_equal a.rects b.rects
  && a.sa_moves = b.sa_moves && a.rng_after = b.rng_after

let flip_equal a b =
  a.orientations = b.orientations && float_equal a.flip_gain b.flip_gain

let equal a b =
  fingerprint_equal a.fp b.fp
  && List.length a.instances = List.length b.instances
  && List.for_all2 instance_equal a.instances b.instances
  && (match (a.flip, b.flip) with
     | None, None -> true
     | Some x, Some y -> flip_equal x y
     | _ -> false)
  && a.stages = b.stages

(* ---- JSON codec ---------------------------------------------------- *)

let fingerprint_json fp =
  Jsonx.Obj
    [ ("circuit", Jsonx.String fp.circuit);
      ("seed", Jsonx.Int fp.seed);
      ("lambda", float_json fp.lambda);
      ("sa_starts", Jsonx.Int fp.sa_starts);
      ("cells", Jsonx.Int fp.cells);
      ("macro_count", Jsonx.Int fp.macro_count) ]

let instance_json e =
  Jsonx.Obj
    [ ("nh", Jsonx.Int e.nh);
      ("depth", Jsonx.Int e.depth);
      ("n_blocks", Jsonx.Int e.n_blocks);
      ("rects", Jsonx.List (Array.to_list (Array.map rect_json e.rects)));
      ("sa_moves", Jsonx.Int e.sa_moves);
      ("rng_after", Jsonx.String (Printf.sprintf "%Lx" e.rng_after)) ]

let flip_json f =
  Jsonx.Obj
    [ ( "orientations",
        Jsonx.List
          (List.map
             (fun (fid, o) ->
               Jsonx.List [ Jsonx.Int fid; Jsonx.String (Geom.Orientation.to_string o) ])
             f.orientations) );
      ("gain", float_json f.flip_gain) ]

let to_json t =
  Jsonx.Obj
    [ ("schema", Jsonx.String schema);
      ("version", Jsonx.Int version);
      ("fingerprint", fingerprint_json t.fp);
      ("stages", Jsonx.List (List.map (fun s -> Jsonx.String s) t.stages));
      ("instances", Jsonx.List (List.map instance_json t.instances));
      ("flip", (match t.flip with Some f -> flip_json f | None -> Jsonx.Null)) ]

let to_payload t = Jsonx.to_string ~compact:true (to_json t) ^ "\n"

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field j name of_j =
  match Option.bind (Jsonx.member name j) of_j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" name)

let fingerprint_of_json j =
  let* circuit = field j "circuit" Jsonx.to_string_opt in
  let* seed = field j "seed" Jsonx.to_int_opt in
  let* lambda = field j "lambda" float_of_json in
  let* sa_starts = field j "sa_starts" Jsonx.to_int_opt in
  let* cells = field j "cells" Jsonx.to_int_opt in
  let* macro_count = field j "macro_count" Jsonx.to_int_opt in
  Ok { circuit; seed; lambda; sa_starts; cells; macro_count }

let instance_of_json j =
  let* nh = field j "nh" Jsonx.to_int_opt in
  let* depth = field j "depth" Jsonx.to_int_opt in
  let* n_blocks = field j "n_blocks" Jsonx.to_int_opt in
  let* rect_items = field j "rects" Jsonx.to_list_opt in
  let rects = List.filter_map rect_of_json rect_items in
  if List.length rects <> List.length rect_items then
    Error "malformed rectangle in instance entry"
  else
    let* sa_moves = field j "sa_moves" Jsonx.to_int_opt in
    let* rng_after =
      field j "rng_after" (fun v ->
          Option.bind (Jsonx.to_string_opt v) (fun s -> Int64.of_string_opt ("0x" ^ s)))
    in
    Ok { nh; depth; n_blocks; rects = Array.of_list rects; sa_moves; rng_after }

let flip_of_json j =
  let* items = field j "orientations" Jsonx.to_list_opt in
  let orient = function
    | Jsonx.List [ fid; o ] ->
      (match (Jsonx.to_int_opt fid, Option.bind (Jsonx.to_string_opt o) Geom.Orientation.of_string) with
      | Some fid, Some o -> Some (fid, o)
      | _ -> None)
    | _ -> None
  in
  let orientations = List.filter_map orient items in
  if List.length orientations <> List.length items then
    Error "malformed orientation in flip entry"
  else
    let* flip_gain = field j "gain" float_of_json in
    Ok { orientations; flip_gain }

let of_json j =
  let* s = field j "schema" Jsonx.to_string_opt in
  if s <> schema then Error (Printf.sprintf "not a %s payload (schema %S)" schema s)
  else
    let* v = field j "version" Jsonx.to_int_opt in
    if v > version then
      Error (Printf.sprintf "state version %d is newer than supported %d" v version)
    else
      let* fpj = field j "fingerprint" (fun x -> Some x) in
      let* fp = fingerprint_of_json fpj in
      let* stage_items = field j "stages" Jsonx.to_list_opt in
      let stages = List.filter_map Jsonx.to_string_opt stage_items in
      let* inst_items = field j "instances" Jsonx.to_list_opt in
      let* instances =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* e = instance_of_json item in
            Ok (e :: acc))
          (Ok []) inst_items
      in
      let* flip =
        match Jsonx.member "flip" j with
        | None | Some Jsonx.Null -> Ok None
        | Some f ->
          let* f = flip_of_json f in
          Ok (Some f)
      in
      Ok { fp; instances = List.rev instances; flip; stages }

let of_payload payload =
  match Jsonx.parse payload with
  | Error msg -> Error msg
  | Ok j -> of_json j

let pp_fingerprint ppf fp =
  Format.fprintf ppf "circuit %s, seed %d, lambda %g, sa_starts %d, %d cells, %d macros"
    fp.circuit fp.seed fp.lambda fp.sa_starts fp.cells fp.macro_count
