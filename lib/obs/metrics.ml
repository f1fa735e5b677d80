(* Raw-sample storage is capped by a deterministic reservoir
   (Algorithm R, capacity [reservoir_capacity]) so long runs cannot
   grow memory without bound: count/sum/min/max stay exact, the binned
   histogram stays exact, and percentiles are computed from the
   retained subsample. The reservoir RNG is seeded from the metric
   name, so the retained set depends only on the observation sequence
   — never on scheduling — which keeps merged registries identical for
   every job count. *)
let reservoir_capacity = 512

type hist = {
  res : float array;  (* res.(0 .. filled-1) are the retained samples *)
  mutable filled : int;
  mutable offered : int;  (* observations offered to the reservoir *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  rng : Util.Rng.t;  (* reservoir replacement stream, seeded by name *)
  bin_width : float;
  bins : Util.Histogram.t;
}

type value =
  | Gauge of float ref
  | Hist of hist
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

let bin_of ~bin_width x =
  let b = int_of_float (floor (x /. bin_width)) in
  if b < 0 then 0 else b

let get_hist t name ~bin_width =
  match Hashtbl.find_opt t.tbl name with
  | Some (Hist h) -> h
  | Some _ | None ->
    let h =
      { res = Array.make reservoir_capacity 0.0;
        filled = 0;
        offered = 0;
        count = 0;
        sum = 0.0;
        min_v = infinity;
        max_v = neg_infinity;
        rng = Util.Rng.create (Hashtbl.hash name);
        bin_width;
        bins = Util.Histogram.create () }
    in
    Hashtbl.replace t.tbl name (Hist h);
    h

(* Algorithm R: the i-th offered sample replaces a uniformly chosen
   slot with probability capacity/i once the reservoir is full. *)
let offer h x =
  h.offered <- h.offered + 1;
  if h.filled < reservoir_capacity then begin
    h.res.(h.filled) <- x;
    h.filled <- h.filled + 1
  end
  else begin
    let j = Util.Rng.int h.rng h.offered in
    if j < reservoir_capacity then h.res.(j) <- x
  end

let retained h = Array.to_list (Array.sub h.res 0 h.filled)

let observe ?(bin_width = 1.0) t name x =
  let h = get_hist t name ~bin_width in
  offer h x;
  h.count <- h.count + 1;
  h.sum <- h.sum +. x;
  if x < h.min_v then h.min_v <- x;
  if x > h.max_v then h.max_v <- x;
  Util.Histogram.add h.bins ~bin:(bin_of ~bin_width:h.bin_width x) ~weight:1.0

let push_series t name x y =
  match Hashtbl.find_opt t.tbl name with
  | Some (Series r) -> r := (x, y) :: !r
  | Some _ | None -> Hashtbl.replace t.tbl name (Series (ref [ (x, y) ]))

(* ---- gated shorthands --------------------------------------------- *)

let gauge name v = if enabled () then set_gauge (ambient ()) name v

let sample ?bin_width name x = if enabled () then observe ?bin_width (ambient ()) name x

let series name ~x ~y = if enabled () then push_series (ambient ()) name x y

(* ---- queries ------------------------------------------------------ *)

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare

let gauge_value t name =
  match Hashtbl.find_opt t.tbl name with Some (Gauge r) -> Some !r | _ -> None

let hist_samples t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Hist h) -> retained h
  | _ -> []

let series_points t name =
  match Hashtbl.find_opt t.tbl name with Some (Series r) -> List.rev !r | _ -> []

(* ---- merge -------------------------------------------------------- *)

let merge_into dst src =
  let copy_into name v =
    match v with
    | Gauge r -> set_gauge dst name !r
    | Hist h ->
      let d = get_hist dst name ~bin_width:h.bin_width in
      (* Exact aggregates merge exactly; only the retained subsample is
         re-offered to the destination reservoir (in slot order, so the
         result depends only on the merge order — task order). *)
      d.count <- d.count + h.count;
      d.sum <- d.sum +. h.sum;
      if h.min_v < d.min_v then d.min_v <- h.min_v;
      if h.max_v > d.max_v then d.max_v <- h.max_v;
      List.iter
        (fun (bin, weight) -> Util.Histogram.add d.bins ~bin ~weight)
        (Util.Histogram.bins h.bins);
      for i = 0 to h.filled - 1 do
        offer d h.res.(i)
      done
    | Series r -> List.iter (fun (x, y) -> push_series dst name x y) (List.rev !r)
  in
  Hashtbl.iter copy_into src.tbl

let merge a b =
  let out = create () in
  merge_into out a;
  merge_into out b;
  out

(* ---- percentiles / export ----------------------------------------- *)

(* Boundary convention (documented in the .mli): the empty list has no
   percentiles; a single sample is every percentile of its
   distribution. The general case interpolates linearly between order
   statistics, so the single-sample rule is the n = 1 instance of the
   formula rather than a special case bolted on. *)
let percentile_opt xs ~p =
  match List.sort compare xs with
  | [] -> None
  | [ x ] -> Some x
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let p = Util.Stat.clamp ~lo:0.0 ~hi:100.0 p in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    Some (a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo))))

let percentile xs ~p =
  match percentile_opt xs ~p with
  | Some v -> v
  | None -> invalid_arg "Metrics.percentile: empty sample list"

let hist_json h =
  let samples = retained h in
  (* count/mean/min/max are exact even past the reservoir capacity;
     the percentiles are estimates from the retained subsample. *)
  let stats =
    match samples with
    | [] -> []
    | _ ->
      [ ("mean", Jsonx.Float (h.sum /. float_of_int h.count));
        ("min", Jsonx.Float h.min_v);
        ("max", Jsonx.Float h.max_v);
        ("p50", Jsonx.Float (percentile samples ~p:50.0));
        ("p90", Jsonx.Float (percentile samples ~p:90.0));
        ("p99", Jsonx.Float (percentile samples ~p:99.0)) ]
  in
  Jsonx.Obj
    (( ("count", Jsonx.Int h.count) :: stats )
    @ [ ("bin_width", Jsonx.Float h.bin_width);
        ( "bins",
          Jsonx.List
            (List.map
               (fun (b, w) -> Jsonx.List [ Jsonx.Int b; Jsonx.Float w ])
               (Util.Histogram.bins h.bins)) ) ])

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
      ( "histograms",
        Jsonx.Obj (section (function Hist h -> Some h | _ -> None) hist_json) );
      ( "series",
        Jsonx.Obj
          (section
             (function Series r -> Some (List.rev !r) | _ -> None)
             (fun pts ->
               Jsonx.List
                 (List.map
                    (fun (x, y) -> Jsonx.List [ Jsonx.Float x; Jsonx.Float y ])
                    pts))) ) ]
