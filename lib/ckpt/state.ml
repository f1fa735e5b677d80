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

open Jsonx.Syntax

let hex64 j =
  let* s = Jsonx.string j in
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits -> Ok bits
  | None -> Error (Printf.sprintf "expected hex bits, got %S" s)

let float_of_json = function
  | Jsonx.Int i -> Ok (float_of_int i)
  | j -> Result.map Int64.float_of_bits (hex64 j)

let float_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let rect_json (r : Rect.t) =
  Jsonx.List [ float_json r.Rect.x; float_json r.Rect.y; float_json r.Rect.w; float_json r.Rect.h ]

let rect_of_json j =
  let* l = Jsonx.list float_of_json j in
  match l with
  | [ x; y; w; h ] -> Ok (Rect.make ~x ~y ~w ~h)
  | _ -> Error (Printf.sprintf "expected [x, y, w, h], got %d numbers" (List.length l))

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

let fingerprint_of_json j =
  let* circuit = Jsonx.field "circuit" Jsonx.string j in
  let* seed = Jsonx.field "seed" Jsonx.int j in
  let* lambda = Jsonx.field "lambda" float_of_json j in
  let* sa_starts = Jsonx.field "sa_starts" Jsonx.int j in
  let* cells = Jsonx.field "cells" Jsonx.int j in
  let* macro_count = Jsonx.field "macro_count" Jsonx.int j in
  Ok { circuit; seed; lambda; sa_starts; cells; macro_count }

let instance_of_json j =
  let* nh = Jsonx.field "nh" Jsonx.int j in
  let* depth = Jsonx.field "depth" Jsonx.int j in
  let* n_blocks = Jsonx.field "n_blocks" Jsonx.int j in
  let* rects = Jsonx.field "rects" (Jsonx.list rect_of_json) j in
  let* sa_moves = Jsonx.field "sa_moves" Jsonx.int j in
  let* rng_after = Jsonx.field "rng_after" hex64 j in
  Ok { nh; depth; n_blocks; rects = Array.of_list rects; sa_moves; rng_after }

let flip_of_json j =
  let orientation = Jsonx.enum "orientation" Geom.Orientation.of_string in
  let* orientations =
    Jsonx.field "orientations" (Jsonx.list (Jsonx.pair Jsonx.int orientation)) j
  in
  let* flip_gain = Jsonx.field "gain" float_of_json j in
  Ok { orientations; flip_gain }

let of_json j =
  let* s = Jsonx.field "schema" Jsonx.string j in
  if s <> schema then Error (Printf.sprintf "not a %s payload (schema %S)" schema s)
  else
    let* v = Jsonx.field "version" Jsonx.int j in
    if v > version then
      Error (Printf.sprintf "state version %d is newer than supported %d" v version)
    else
      let* fp = Jsonx.field "fingerprint" fingerprint_of_json j in
      let* stages = Jsonx.field "stages" (Jsonx.list Jsonx.string) j in
      let* instances = Jsonx.field "instances" (Jsonx.list instance_of_json) j in
      let* flip = Jsonx.field_opt "flip" flip_of_json j in
      Ok { fp; instances; flip; stages }

let of_payload payload =
  match Jsonx.parse payload with
  | Error msg -> Error msg
  | Ok j -> of_json j

let pp_fingerprint ppf fp =
  Format.fprintf ppf "circuit %s, seed %d, lambda %g, sa_starts %d, %d cells, %d macros"
    fp.circuit fp.seed fp.lambda fp.sa_starts fp.cells fp.macro_count
