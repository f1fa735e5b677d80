type value =
  | Gauge of float ref
  | Series of (float * float) list ref  (* reversed *)

type t = { tbl : (string, value) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let global = create ()

(* The enabled flag is read from worker domains (atomic load); the
   registry the gated shorthands write to is domain-local so that
   concurrent tasks never share a mutable table. Fork-join runners give
   each task a fresh ambient registry via [with_ambient] and fold the
   results back with [merge_into] in a deterministic order. *)
let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> global)

let ambient () = Domain.DLS.get ambient_key

let with_ambient r f =
  let saved = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key saved) f

let reset t = Hashtbl.reset t.tbl

(* ---- operations --------------------------------------------------- *)

let set_gauge t name v =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge r) -> r := v
  | Some _ | None -> Hashtbl.replace t.tbl name (Gauge (ref v))

let push_series t name x y =
  match Hashtbl.find_opt t.tbl name with
  | Some (Series r) -> r := (x, y) :: !r
  | Some _ | None -> Hashtbl.replace t.tbl name (Series (ref [ (x, y) ]))

(* ---- gated shorthands --------------------------------------------- *)

let gauge name v = if enabled () then set_gauge (ambient ()) name v

let series name ~x ~y = if enabled () then push_series (ambient ()) name x y

(* ---- queries ------------------------------------------------------ *)

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare

let gauge_value t name =
  match Hashtbl.find_opt t.tbl name with Some (Gauge r) -> Some !r | _ -> None

let series_points t name =
  match Hashtbl.find_opt t.tbl name with Some (Series r) -> List.rev !r | _ -> []

(* ---- merge -------------------------------------------------------- *)

let merge_into dst src =
  let copy_into name v =
    match v with
    | Gauge r -> set_gauge dst name !r
    | Series r -> List.iter (fun (x, y) -> push_series dst name x y) (List.rev !r)
  in
  Hashtbl.iter copy_into src.tbl

(* ---- export ------------------------------------------------------- *)

let to_json ~counters t =
  let section pick to_j =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt t.tbl name with
        | Some v -> Option.map (fun x -> (name, to_j x)) (pick v)
        | None -> None)
      (names t)
  in
  Jsonx.Obj
    [ ("counters", Perf.to_json counters);
      ( "gauges",
        Jsonx.Obj
          (section (function Gauge r -> Some !r | _ -> None) (fun v -> Jsonx.Float v)) );
      ( "series",
        Jsonx.Obj
          (section
             (function Series r -> Some (List.rev !r) | _ -> None)
             (fun pts ->
               Jsonx.List
                 (List.map
                    (fun (x, y) -> Jsonx.List [ Jsonx.Float x; Jsonx.Float y ])
                    pts))) ) ]
