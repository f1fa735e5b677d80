(* The telemetry registry of a run: counters, gauges and series.

   Every counter id is a fixed index into a flat [int array]; the hot
   path never hashes a string or allocates. Ids are only ever appended,
   so an id's index is stable across versions. Gauges and series are
   named and sit in a table next to the counters. The registry is
   ambient and domain-local: fork-join runners give each task a fresh
   one via [with_ambient] and fold it back with [merge_into] in task
   order, so the merged registry is identical for every job count and
   enabling telemetry never perturbs a placement. *)

type id = int

let counter_names =
  [| "sa.moves";
     "sa.accepts";
     "sa.rejects";
     "sa.plateaus";
     "sa.reheats";
     "cost.evals";
     "floorplan.instances";
     "floorplan.sa_moves";
     "shape_curves.combines";
     "shape_curves.sa_moves";
     "hidap.places";
     "cellplace.runs";
     "netlist.elaborations";
     "hnl.files_parsed";
     "hnl.bytes_parsed" |]

let sa_moves = 0
let sa_accepts = 1
let sa_rejects = 2
let sa_plateaus = 3
let sa_reheats = 4
let cost_evals = 5
let fp_instances = 6
let fp_sa_moves = 7
let sc_combines = 8
let sc_sa_moves = 9
let hidap_places = 10
let cellplace_runs = 11
let netlist_elaborations = 12
let hnl_files_parsed = 13
let hnl_bytes_parsed = 14

let n_ids = Array.length counter_names

type named =
  | Gauge of float ref
  | Series of (float * float) list ref  (* reversed *)

type t = { counts : int array; named : (string, named) Hashtbl.t }

let create () = { counts = Array.make n_ids 0; named = Hashtbl.create 32 }

let global = create ()

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> global)

let ambient () = Domain.DLS.get ambient_key

let with_ambient r f =
  let saved = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key saved) f

let reset t =
  Array.fill t.counts 0 n_ids 0;
  Hashtbl.reset t.named

(* ---- counters ----------------------------------------------------- *)

let get t i = t.counts.(i)

let bump t i n =
  let a = t.counts in
  Array.unsafe_set a i (Array.unsafe_get a i + n)

let add i n = if enabled () then bump (ambient ()) i n

let snapshot t = Array.copy t.counts

let to_assoc t = List.mapi (fun i name -> (name, t.counts.(i))) (Array.to_list counter_names)

(* ---- gauges and series -------------------------------------------- *)

let set_gauge t name v =
  match Hashtbl.find_opt t.named name with
  | Some (Gauge r) -> r := v
  | Some (Series _) | None -> Hashtbl.replace t.named name (Gauge (ref v))

let push_series t name x y =
  match Hashtbl.find_opt t.named name with
  | Some (Series r) -> r := (x, y) :: !r
  | Some (Gauge _) | None -> Hashtbl.replace t.named name (Series (ref [ (x, y) ]))

let gauge name v = if enabled () then set_gauge (ambient ()) name v

let series name ~x ~y = if enabled () then push_series (ambient ()) name x y

let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.named [] |> List.sort compare

let gauge_value t name =
  match Hashtbl.find_opt t.named name with Some (Gauge r) -> Some !r | _ -> None

let series_points t name =
  match Hashtbl.find_opt t.named name with Some (Series r) -> List.rev !r | _ -> []

(* ---- merge and export --------------------------------------------- *)

let merge_into dst src =
  for i = 0 to n_ids - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  Hashtbl.iter
    (fun name -> function
      | Gauge r -> set_gauge dst name !r
      | Series r -> List.iter (fun (x, y) -> push_series dst name x y) (List.rev !r))
    src.named

let to_json t =
  let point (x, y) = Jsonx.List [ Jsonx.Float x; Jsonx.Float y ] in
  let gauges, series =
    List.partition_map
      (fun name ->
        match Hashtbl.find t.named name with
        | Gauge r -> Either.Left (name, Jsonx.Float !r)
        | Series r -> Either.Right (name, Jsonx.List (List.rev_map point !r)))
      (names t)
  in
  Jsonx.Obj
    [ ("counters", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Int v)) (to_assoc t)));
      ("gauges", Jsonx.Obj gauges);
      ("series", Jsonx.Obj series) ]
