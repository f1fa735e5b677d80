(* The counter registry: every counter of the program, pre-registered.

   Every counter id is a fixed index into a flat [int array]; the hot
   path never hashes a string or allocates. Ids are only ever appended,
   so an id's index is stable across versions. The registry is ambient
   and domain-local, mirroring [Metrics]: fork-join runners give each task
   a fresh array via [with_ambient] and fold the snapshots back with
   [merge_into] in task order, so the merged totals are identical for
   every job count and enabling the counters never perturbs a
   placement. *)

type id = int

let names =
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

let n_ids = Array.length names

let all_ids = List.init n_ids Fun.id

type t = int array

let create () : t = Array.make n_ids 0

let global : t = create ()

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> global)

let ambient () = Domain.DLS.get ambient_key

let with_ambient r f =
  let saved = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key saved) f

let get (t : t) i = t.(i)

let bump (t : t) i n = Array.unsafe_set t i (Array.unsafe_get t i + n)

let add i n = if enabled () then bump (ambient ()) i n

let reset (t : t) = Array.fill t 0 n_ids 0

let snapshot (t : t) = Array.copy t

let merge_into (dst : t) (src : t) =
  for i = 0 to n_ids - 1 do
    dst.(i) <- dst.(i) + src.(i)
  done

let to_assoc (t : t) = List.map (fun i -> (names.(i), t.(i))) all_ids

let to_json (t : t) =
  Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Int v)) (to_assoc t))
