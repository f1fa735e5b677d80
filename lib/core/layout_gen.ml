module Rect = Geom.Rect
module Point = Geom.Point

type breakdown = {
  bd_wirelength : float;
  bd_at_penalty : float;
  bd_am_penalty : float;
  bd_macro_penalty : float;
  bd_residual : float;
}

type pair_contrib = {
  pc_i : int;
  pc_j : int;
  pc_weight : float;
  pc_wl : float;
}

type attribution = {
  attr_pairs : pair_contrib array;
  attr_leaf_viol : Slicing.Layout.violations array;
}

type result = {
  rects : Rect.t array;
  cost : float;
  wirelength_term : float;
  viol : Slicing.Layout.violations;
  breakdown : breakdown;
  attribution : attribution;
  sa_moves : int;
  final_temperature : float;
      (* of the winning annealing start; 0.0 when no search ran *)
}

let term_names = [ "wirelength"; "at_penalty"; "am_penalty"; "macro_penalty"; "residual" ]

let breakdown_terms b =
  [ ("wirelength", b.bd_wirelength);
    ("at_penalty", b.bd_at_penalty);
    ("am_penalty", b.bd_am_penalty);
    ("macro_penalty", b.bd_macro_penalty);
    ("residual", b.bd_residual) ]

(* The documented reconstruction order. [breakdown_of] computes the
   residual against exactly this left-to-right sum, so the total is the
   annealer's scalar bit for bit. *)
let breakdown_total b =
  (((b.bd_wirelength +. b.bd_at_penalty) +. b.bd_am_penalty) +. b.bd_macro_penalty)
  +. b.bd_residual

(* Named decomposition of the scalar the annealer minimizes. The cost is
   [base * (1 + at + am + macro)] with [base] the wirelength (or the 1.0
   legality bias when the affinity matrix is empty), so distributing
   [base] gives one named product per penalty term. The four products
   agree with [cost] to a few ulps, which keeps [cost /. sum] within
   [1/2, 2]; by Sterbenz's lemma [cost -. sum] is then computed exactly
   and adding it back reproduces [cost] bit for bit — the invariant the
   attribution property test asserts. *)
let breakdown_of ~cost ~wirelength ~viol ~(config : Config.t) ~budget ~n_pairs =
  let scale v = v /. max 1e-9 (Rect.area budget) in
  let base = if n_pairs = 0 then 1.0 else wirelength in
  let bd_wirelength = base in
  let bd_at_penalty =
    base *. (config.Config.at_weight *. scale viol.Slicing.Layout.at_shift)
  in
  let bd_am_penalty =
    base *. (config.Config.am_weight *. scale viol.Slicing.Layout.am_deficit)
  in
  let bd_macro_penalty =
    base *. (config.Config.macro_weight *. scale viol.Slicing.Layout.macro_deficit)
  in
  let partial =
    ((bd_wirelength +. bd_at_penalty) +. bd_am_penalty) +. bd_macro_penalty
  in
  { bd_wirelength; bd_at_penalty; bd_am_penalty; bd_macro_penalty;
    bd_residual = cost -. partial }

(* Sparse list of affinity pairs that involve at least one block. Only
   the upper triangle is read, which is correct solely because the
   matrix is symmetric — [Gdf.affinity_matrix] writes both mirrors of
   every entry. An asymmetric matrix would silently drop its whole
   lower-triangle weight here, so any disagreement across the diagonal
   (including NaN, which never equals its mirror) is rejected with a
   structured diagnostic instead of folded in: summing w_ij +. w_ji
   would double every weight of the symmetric matrices the real flow
   produces and shift every cost. *)
let affinity_pairs ~n_blocks ~n_endpoints affinity =
  let pairs = ref [] in
  for i = 0 to n_blocks - 1 do
    for j = i + 1 to n_endpoints - 1 do
      let w = affinity.(i).(j) in
      if w <> affinity.(j).(i) then
        Guard.Diag.fail ~code:"asymmetric-affinity" ~stage:"floorplan"
          (Printf.sprintf
             "affinity matrix is asymmetric at (%d, %d): %g above the diagonal \
              vs %g below; the pair scan reads only the upper triangle"
             i j w affinity.(j).(i));
      if w > 1e-12 then pairs := (i, j, w) :: !pairs
    done
  done;
  Array.of_list !pairs

(* The cost frame: [finish_cost]'s inputs and outputs, flat, so the
   annealer's path boxes no float. In: the wirelength fold and the raw
   violation totals. Out: the totals with the single-block adjustment,
   and the cost. *)
let cf_wl = 0
let cf_at = 1
let cf_am = 2
let cf_mac = 3
let cf_cost = 4
let cf_slots = 5

(* Assemble the cost from the wirelength fold and the violation totals.
   Shared verbatim by the annealer's incremental path and
   [result_of_expr]'s full walk, so once their inputs agree bitwise the
   result's cost is the scalar the annealer saw. *)
let finish_cost cf ~leaves ~budget ~n_pairs ~(config : Config.t) ~n_blocks =
  (* Normalize violation areas by the budget area so the penalty weights
     are scale-free. The expressions are [Rect.area] and
     [Slicing.Layout.penalty]'s, written out: a float crossing a module
     boundary is boxed. *)
  let area = budget.Rect.w *. budget.Rect.h in
  let den = if 1e-9 >= area then 1e-9 else area in
  (* A lone leaf never passes through the split, which is where the
     multi-block path charges minimum-area deficits; charge its deficit
     against the whole budget here so a violating single block pays the
     same graded penalty. *)
  if n_blocks = 1 then begin
    let over = leaves.(0).Slicing.Layout.area_min -. area in
    cf.(cf_am) <- cf.(cf_am) +. (if 0.0 >= over then 0.0 else over)
  end;
  let pen =
    (config.Config.at_weight *. (cf.(cf_at) /. den))
    +. (config.Config.am_weight *. (cf.(cf_am) /. den))
    +. (config.Config.macro_weight *. (cf.(cf_mac) /. den))
  in
  (* A tiny wirelength-free bias keeps annealing meaningful when the
     affinity matrix is empty: prefer legal layouts. *)
  let wl = cf.(cf_wl) in
  let base = if n_pairs = 0 then 1.0 else wl in
  let cost = base *. (1.0 +. pen) in
  (* NaN poisoning must surface as a diagnostic, never reach the SA
     acceptance test: [nan < x] is silently false, so a poisoned cost
     would freeze the search on whatever expression came first and the
     run would "succeed" with a garbage layout. *)
  if not (Float.is_finite cost) then
    Guard.Diag.fail ~code:"non-finite-cost" ~stage:"floorplan"
      (Printf.sprintf
         "layout cost is %g (wirelength %g, budget %gx%g): non-finite area or \
          position reached the annealer"
         cost wl budget.Rect.w budget.Rect.h);
  cf.(cf_cost) <- cost

let viol_of_frame cf =
  { Slicing.Layout.at_shift = cf.(cf_at); am_deficit = cf.(cf_am);
    macro_deficit = cf.(cf_mac) }

(* ---- incremental evaluation ---------------------------------------- *)

(* The instance cost table (DESIGN.md section 14). An annealing start
   on a few blocks keeps proposing expressions it has already scored,
   and so do its sibling starts; the cost is a pure function of the
   expression ([Slicing.Inc] results do not depend on evaluation
   history), so a repeat can return a stored cost instead of re-walking
   the tree. The key is the expression packed into one int at [ic_bits]
   bits per element (its [Polish] codes: H -> 0, V -> 1, operand
   i -> i + 2), element 0 most significant. That packing is injective,
   so a key match is an exact expression match; the table is enabled
   only when all [2n - 1] elements fit 62 bits, i.e. n <= 8. The
   annealer's walker keeps the key up to date as it moves.

   One table per [run] instance, [ic_shared], is shared by its starts
   (possibly on other domains), with bounded linear probing. An entry
   is an immutable record holding the key and its own copy of the cost
   frame, both built before the entry is published with a single array
   store and never written after, so a reader sees a whole entry or the
   previous one, never a key paired with another expression's cost. A
   racing store can lose an entry, which costs only a later
   re-evaluation. Which start publishes an entry first depends on
   scheduling at jobs >= 2, so its hits are counted nowhere. *)
let table_slot_bits = 15
let table_slots = 1 lsl table_slot_bits
let table_probes = 8

type entry = { e_key : int; e_cf : float array }

let no_entry = { e_key = -1; e_cf = [||] }

let key_bits n_blocks =
  let rec width b = if 1 lsl b >= n_blocks + 2 then b else width (b + 1) in
  let b = width 1 in
  if ((2 * n_blocks) - 1) * b <= 62 then b else 0

(* An empty instance table, or none when the table is off. *)
let instance_table ~n_blocks =
  if key_bits n_blocks > 0 then Array.make table_slots no_entry else [||]

(* The packed key of [expr], or -1 when it cannot be packed (wrong
   length or operand out of range): such an expression never reaches
   the table and gets [Slicing.Inc.evaluate]'s own diagnostic. *)
let table_key ~n_blocks ~bits expr =
  let codes = (expr : Slicing.Polish.t :> int array) in
  let len = Array.length codes in
  if len <> (2 * n_blocks) - 1 then -1
  else begin
    let limit = n_blocks + 2 in
    let key = ref 0 and k = ref 0 in
    while !k < len do
      let c = codes.(!k) in
      if c >= limit then begin
        key := -1;
        k := len
      end
      else begin
        key := (!key lsl bits) lor c;
        incr k
      end
    done;
    !key
  end

(* Fibonacci hashing: the top bits of the key times an odd 63-bit
   constant, so every element position reaches the slot. *)
let table_slot key = (key * 0x2545F4914F6CDD1D) lsr (63 - table_slot_bits)

(* A walker over [expr] that keeps its table key up to date, or none
   when the table is off or [expr] cannot be packed: the only place
   the annealer packs a key from scratch. *)
let walker ~n_blocks expr =
  let bits = key_bits n_blocks in
  if bits = 0 then Slicing.Polish.Walker.create expr
  else Slicing.Polish.Walker.create ~bits ~key:(table_key ~n_blocks ~bits expr) expr

let table_slot_of ~n_blocks expr =
  let bits = key_bits n_blocks in
  let key = if bits = 0 then -1 else table_key ~n_blocks ~bits expr in
  if key < 0 then None else Some (table_slot key)

(* Per-start state for the incremental cost path (DESIGN.md section 14):
   the [Slicing.Inc] tree evaluator plus flat pair tables. [ic_pc]
   caches each pair's wirelength contribution; [ic_adj] lists, per
   block, the pairs it participates in, so a move only recomputes the
   contributions of pairs with a moved endpoint (fixed endpoints never
   move). The total is still re-folded left to right over the whole
   contribution array every evaluation: each entry is bitwise the term
   [result_of_expr]'s pair scan computes, in the same pair order, so the
   sum — and hence the cost — is bit-identical. *)
type inc = {
  ic_state : Slicing.Inc.t;
  ic_pi : int array;
  ic_pj : int array;
  ic_pw : float array;
  ic_pc : float array;
  ic_adj : int array array;
  ic_fx : float array;   (* fixed endpoint coordinates, flattened *)
  ic_fy : float array;
  ic_cf : float array;   (* the cost frame *)
  ic_leaves : Slicing.Layout.leaf array;
  ic_budget : Rect.t;
  ic_config : Config.t;
  ic_n_blocks : int;
  (* The instance table (below); [ic_bits = 0] turns it off, with an
     empty table. *)
  ic_bits : int;
  ic_shared : entry array;   (* the instance table, one per [run] instance *)
  ic_home : int -> int;      (* a key's home slot in [ic_shared] *)
}

let make_inc ?(home = table_slot) ~leaves ~table ~budget ~pairs ~fixed_pos ~config ~shared () =
  let n_blocks = Array.length leaves in
  let np = Array.length pairs in
  let pi = Array.make np 0 and pj = Array.make np 0 and pw = Array.make np 0.0 in
  let deg = Array.make n_blocks 0 in
  Array.iteri
    (fun p (i, j, w) ->
      pi.(p) <- i;
      pj.(p) <- j;
      pw.(p) <- w;
      if i < n_blocks then deg.(i) <- deg.(i) + 1;
      if j < n_blocks then deg.(j) <- deg.(j) + 1)
    pairs;
  let adj = Array.init n_blocks (fun i -> Array.make deg.(i) 0) in
  let fill = Array.make n_blocks 0 in
  Array.iteri
    (fun p (i, j, _) ->
      if i < n_blocks then begin
        adj.(i).(fill.(i)) <- p;
        fill.(i) <- fill.(i) + 1
      end;
      if j < n_blocks then begin
        adj.(j).(fill.(j)) <- p;
        fill.(j) <- fill.(j) + 1
      end)
    pairs;
  { ic_state = Slicing.Inc.create ~table ~budget;
    ic_pi = pi;
    ic_pj = pj;
    ic_pw = pw;
    ic_pc = Array.make np 0.0;
    ic_adj = adj;
    ic_fx = Array.map (fun (p : Point.t) -> p.Point.x) fixed_pos;
    ic_fy = Array.map (fun (p : Point.t) -> p.Point.y) fixed_pos;
    ic_cf = Array.make cf_slots 0.0;
    ic_leaves = leaves;
    ic_budget = budget;
    ic_config = config;
    ic_n_blocks = n_blocks;
    ic_bits = key_bits n_blocks;
    ic_shared = shared;
    ic_home = home }

(* Refresh the contribution of pair [p]. Recomputing a pair twice (both
   endpoints moved) just rewrites the same value, so the moved list
   needs no deduplication. The arithmetic is [w *. Point.manhattan] with
   the same operand order as [result_of_expr]. *)
let update_pair inc cx cy p =
  let n_blocks = inc.ic_n_blocks in
  let i = inc.ic_pi.(p) and j = inc.ic_pj.(p) in
  let xi = if i < n_blocks then cx.(i) else inc.ic_fx.(i - n_blocks) in
  let yi = if i < n_blocks then cy.(i) else inc.ic_fy.(i - n_blocks) in
  let xj = if j < n_blocks then cx.(j) else inc.ic_fx.(j - n_blocks) in
  let yj = if j < n_blocks then cy.(j) else inc.ic_fy.(j - n_blocks) in
  inc.ic_pc.(p) <- inc.ic_pw.(p) *. (abs_float (xi -. xj) +. abs_float (yi -. yj))

(* Score [expr] on the incremental state: the cost frame [ic_cf] gets
   its wirelength, adjusted violations and cost, the same floats
   [result_of_expr] derives from a full walk. *)
let evaluate_slicing inc expr =
  let st = inc.ic_state in
  Slicing.Inc.evaluate st expr;
  let cx = Slicing.Inc.centers_x st and cy = Slicing.Inc.centers_y st in
  let np = Array.length inc.ic_pc in
  if Slicing.Inc.full st then
    for p = 0 to np - 1 do
      update_pair inc cx cy p
    done
  else begin
    let moved = Slicing.Inc.moved st and n_moved = Slicing.Inc.n_moved st in
    for m = 0 to n_moved - 1 do
      let adj = inc.ic_adj.(moved.(m)) in
      for a = 0 to Array.length adj - 1 do
        update_pair inc cx cy adj.(a)
      done
    done
  end;
  (* Canonical left-to-right re-fold in pair order (never resumed from
     a partial sum: float addition is not associative). *)
  let wl = ref 0.0 in
  for p = 0 to np - 1 do
    wl := !wl +. inc.ic_pc.(p)
  done;
  let cf = inc.ic_cf and v = Slicing.Inc.totals st in
  cf.(cf_wl) <- !wl;
  cf.(cf_at) <- v.(0);
  cf.(cf_am) <- v.(1);
  cf.(cf_mac) <- v.(2);
  finish_cost cf ~leaves:inc.ic_leaves ~budget:inc.ic_budget ~n_pairs:np
    ~config:inc.ic_config ~n_blocks:inc.ic_n_blocks

(* Evaluate [expr] and publish its cost frame under [key] in slot [s]
   of the instance table. Published only after a completed evaluation:
   a diagnostic (such as a non-finite cost) or a fault publishes
   nothing. *)
let publish inc key expr s =
  evaluate_slicing inc expr;
  inc.ic_shared.(s) <- { e_key = key; e_cf = Array.copy inc.ic_cf }

(* The cost of [expr], whose key is [key], from probe [k] on: bounded
   linear probing from the home slot [home]. An entry holding [key]
   within [table_probes] probes answers; otherwise [expr] is evaluated
   and published in the first empty slot met or, when every probed
   slot holds another key, over the home slot. Slots are never emptied,
   so a probe that meets an empty slot has passed every slot [key] can
   be in. Either way [ic_cf] ends up describing [expr]. *)
let rec score_shared inc key expr home k =
  if k = table_probes then publish inc key expr home
  else begin
    let s = (home + k) land (table_slots - 1) in
    let e = inc.ic_shared.(s) in
    if e.e_key = key then
      for j = 0 to cf_slots - 1 do
        inc.ic_cf.(j) <- e.e_cf.(j)
      done
    else if e.e_key < 0 then publish inc key expr s
    else score_shared inc key expr home (k + 1)
  end

(* The annealer's cost function: the cost of [expr], whose packed key
   at [ic_bits] is [key] (or -1: no table). In the annealer the key is
   the one a [walker] keeps up to date. Every call leaves [ic_cf]
   describing [expr]: a table hit copies the whole stored frame, and
   leaves [ic_state] and the pair contributions as they were, which
   only widens the next evaluation's diff window. *)
let evaluate_inc inc key expr =
  if key < 0 || inc.ic_bits = 0 then evaluate_slicing inc expr
  else score_shared inc key expr (inc.ic_home key) 0;
  inc.ic_cf.(cf_cost)

let walker_cost inc w =
  evaluate_inc inc (Slicing.Polish.Walker.key w) (Slicing.Polish.Walker.expr w)

(* The states of [starts] starts of one instance: their own, with one
   shared instance table. *)
let start_states ?home ~starts ~config ~blocks ~affinity ~fixed_pos ~budget () =
  let n_blocks = Array.length blocks in
  let leaves = Array.map Block.to_leaf blocks in
  let pairs = affinity_pairs ~n_blocks ~n_endpoints:(Array.length affinity) affinity in
  let table = Slicing.Layout.leaf_table leaves in
  let shared = instance_table ~n_blocks in
  Array.init starts (fun _ ->
      make_inc ?home ~leaves ~table ~budget ~pairs ~fixed_pos ~config ~shared ())

let annealing_costs ~starts ~config ~blocks ~affinity ~fixed_pos ~budget =
  Array.map
    (fun inc expr ->
      let key =
        if inc.ic_bits = 0 then -1
        else table_key ~n_blocks:inc.ic_n_blocks ~bits:inc.ic_bits expr
      in
      evaluate_inc inc key expr)
    (start_states ~starts ~config ~blocks ~affinity ~fixed_pos ~budget ())

let walker_costs ?home ~starts ~config ~blocks ~affinity ~fixed_pos ~budget () =
  Array.map walker_cost
    (start_states ?home ~starts ~config ~blocks ~affinity ~fixed_pos ~budget ())

(* Full evaluation of one expression: the scalar cost plus its named
   breakdown and the post-hoc per-pair / per-leaf attribution. Runs once
   per placed instance (never inside the SA move loop). One slicing walk
   yields the rects, the violation totals and the per-leaf charges; one
   pair scan yields the per-pair shares and their left-to-right fold,
   which is [wirelength_term] bit for bit. *)
let result_of_expr ~leaves ~budget ~pairs ~fixed_pos ~(config : Config.t) ~n_blocks
    ~sa_moves ~final_temperature expr =
  let placement, attr_leaf_viol =
    Slicing.Layout.evaluate_attributed expr ~leaves ~budget
  in
  let rects = Array.make n_blocks budget in
  List.iter (fun (lid, r) -> rects.(lid) <- r) placement.Slicing.Layout.rects;
  let centers = Array.map Rect.center rects in
  let pos i = if i < n_blocks then centers.(i) else fixed_pos.(i - n_blocks) in
  let wl = ref 0.0 in
  let attr_pairs =
    Array.init (Array.length pairs) (fun p ->
        let i, j, w = pairs.(p) in
        let pc_wl = w *. Point.manhattan (pos i) (pos j) in
        wl := !wl +. pc_wl;
        { pc_i = i; pc_j = j; pc_weight = w; pc_wl })
  in
  let v = placement.Slicing.Layout.viol in
  let cf =
    [| !wl; v.Slicing.Layout.at_shift; v.Slicing.Layout.am_deficit;
       v.Slicing.Layout.macro_deficit; 0.0 |]
  in
  finish_cost cf ~leaves ~budget ~n_pairs:(Array.length pairs) ~config ~n_blocks;
  let cost = cf.(cf_cost) and wl = cf.(cf_wl) and viol = viol_of_frame cf in
  let breakdown =
    breakdown_of ~cost ~wirelength:wl ~viol ~config ~budget
      ~n_pairs:(Array.length pairs)
  in
  (* Per-leaf violations, with [finish_cost]'s single-block budget
     adjustment mirrored onto the lone leaf so the attribution covers
     the same total as [viol]. *)
  if n_blocks = 1 && Array.length attr_leaf_viol > 0 then
    attr_leaf_viol.(0) <-
      { attr_leaf_viol.(0) with
        Slicing.Layout.am_deficit =
          attr_leaf_viol.(0).Slicing.Layout.am_deficit
          +. max 0.0 (leaves.(0).Slicing.Layout.area_min -. Rect.area budget) };
  { rects; cost; wirelength_term = wl; viol; breakdown;
    attribution = { attr_pairs; attr_leaf_viol }; sa_moves; final_temperature }

let eval_expr ~config ~blocks ~affinity ~fixed_pos ~budget expr =
  let n_blocks = Array.length blocks in
  let leaves = Array.map Block.to_leaf blocks in
  let pairs =
    affinity_pairs ~n_blocks ~n_endpoints:(Array.length affinity) affinity
  in
  result_of_expr ~leaves ~budget ~pairs ~fixed_pos ~config ~n_blocks ~sa_moves:0
    ~final_temperature:0.0 expr

(* The alternating-operator chain skeleton with operand values taken
   from [order]. *)
let chain_expr ~n_blocks ~order =
  let skeleton = Slicing.Polish.elements (Slicing.Polish.initial ~n:n_blocks) in
  let k = ref 0 in
  let elems =
    Array.map
      (fun e ->
        match e with
        | Slicing.Polish.Operand _ ->
          let v = order.(!k) in
          incr k;
          Slicing.Polish.Operand v
        | Slicing.Polish.Operator _ -> e)
      skeleton
  in
  Slicing.Polish.of_elements elems

(* Affinity-greedy operand order: start from the block with the largest
   total affinity and repeatedly append the block most attracted to the
   last one, so strongly coupled blocks are adjacent in the initial
   layout. *)
let greedy_chain ~affinity ~n_blocks ~n_endpoints =
  let total i =
    let acc = ref 0.0 in
    for j = 0 to n_endpoints - 1 do
      if j <> i then acc := !acc +. affinity.(i).(j)
    done;
    !acc
  in
  let remaining = ref (List.init n_blocks (fun i -> i)) in
  let first =
    List.fold_left
      (fun best i -> if total i > total best then i else best)
      (List.hd !remaining) !remaining
  in
  remaining := List.filter (( <> ) first) !remaining;
  let order = ref [ first ] in
  while !remaining <> [] do
    let last = List.hd !order in
    let next =
      List.fold_left
        (fun best i -> if affinity.(last).(i) > affinity.(last).(best) then i else best)
        (List.hd !remaining) !remaining
    in
    remaining := List.filter (( <> ) next) !remaining;
    order := next :: !order
  done;
  Array.of_list (List.rev !order)

let run ?observer ?term_observer ~rng ~config ~blocks ~affinity ~fixed_pos ~budget () =
  let n_blocks = Array.length blocks in
  assert (n_blocks >= 1);
  let leaves = Array.map Block.to_leaf blocks in
  let n_endpoints = Array.length affinity in
  assert (n_endpoints = n_blocks + Array.length fixed_pos);
  let pairs = affinity_pairs ~n_blocks ~n_endpoints affinity in
  if n_blocks = 1 then
    (* No search needed, but the cost must grade budget violations and
       wirelength to fixed endpoints exactly like the multi-block path,
       so sweep objectives stay comparable across instance sizes. *)
    result_of_expr ~leaves ~budget ~pairs ~fixed_pos ~config ~n_blocks ~sa_moves:0
      ~final_temperature:0.0 (Slicing.Polish.initial ~n:1)
  else begin
    (* N independent annealing starts: the affinity-greedy chain, the
       reversed chain and sa_starts - 2 random shuffles. Initial
       expressions and pre-split RNG streams are derived from [rng] in
       start order on the calling domain, so every start's trajectory —
       and hence the reduced result — is independent of how the starts
       are scheduled across domains. *)
    let chain = greedy_chain ~affinity ~n_blocks ~n_endpoints in
    let table = Slicing.Layout.leaf_table leaves in
    let search () =
      Guard.Fault.hit "floorplan.sa";
      (* Honor the configured start count exactly: sa_starts = 1 runs
         the affinity-greedy chain alone (it used to silently run the
         reversed chain too), 2 adds the reversed chain, and anything
         beyond fills up with random shuffles — the same construction
         and RNG consumption as before for >= 2, so the default of 4
         stays bit-identical. *)
      let n_starts_cfg = max 1 config.Config.sa_starts in
      let inits =
        if n_starts_cfg = 1 then [| chain_expr ~n_blocks ~order:chain |]
        else begin
          let rev_chain =
            Array.init n_blocks (fun i -> chain.(n_blocks - 1 - i))
          in
          Array.of_list
            (chain_expr ~n_blocks ~order:chain
            :: chain_expr ~n_blocks ~order:rev_chain
            :: List.init (n_starts_cfg - 2) (fun _ ->
                   Slicing.Polish.initial_random rng ~n:n_blocks))
        end
      in
      let n_starts = Array.length inits in
      (* Every start beyond the first re-anneals the same instance from
         a fresh calibrated temperature — the reheat counter. *)
      Obs.Perf.add Obs.Perf.sa_reheats (n_starts - 1);
      let rngs = Array.init n_starts (fun _ -> Util.Rng.split rng) in
      let shared = instance_table ~n_blocks in
      let pool = Parexec.create ~jobs:config.Config.jobs () in
      let results =
        Parexec.map pool
          (fun i ->
            (* Each start owns its incremental evaluation state; the
               starts share only the instance table, whose entries are
               immutable. *)
            let inc =
              make_inc ~leaves ~table ~budget ~pairs ~fixed_pos ~config ~shared ()
            in
            let cost, observer =
              match term_observer with
              | None ->
                let cost w =
                  Guard.Budget.check ~stage:"floorplan";
                  walker_cost inc w
                in
                (cost, observer)
              | Some on_terms ->
                (* Telemetry-only side channel: the cost closure remembers
                   the cheapest evaluation this start has seen (calibration
                   samples included), and each plateau reports its named
                   breakdown. The closure returns the identical scalar and
                   the observer runs outside the RNG path, so trajectories
                   and placements are unchanged (DESIGN.md §9). *)
                let best = ref infinity in
                let best_wl = ref 0.0 in
                let best_viol = ref Slicing.Layout.no_violations in
                let cost w =
                  Guard.Budget.check ~stage:"floorplan";
                  let c = walker_cost inc w in
                  if not (!best <= c) then begin
                    best := c;
                    best_wl := inc.ic_cf.(cf_wl);
                    best_viol := viol_of_frame inc.ic_cf
                  end;
                  c
                in
                let observer' p =
                  (match observer with None -> () | Some f -> f p);
                  on_terms p
                    (breakdown_of ~cost:!best ~wirelength:!best_wl ~viol:!best_viol
                       ~config ~budget ~n_pairs:(Array.length pairs))
                in
                (cost, Some observer')
            in
            Anneal.Sa.anneal ~rng:rngs.(i) ~init:(walker ~n_blocks inits.(i)) ~cost
              ~perturb:Slicing.Polish.Walker.perturb ~undo:Slicing.Polish.Walker.undo
              ~copy:Slicing.Polish.Walker.copy ~params:config.Config.layout_sa ?observer ())
          (Array.init n_starts Fun.id)
      in
      (* Deterministic reduction: minimum best cost, ties to the lowest
         start index. *)
      let best_i = ref 0 in
      for i = 1 to n_starts - 1 do
        if results.(i).Anneal.Sa.best_cost < results.(!best_i).Anneal.Sa.best_cost then
          best_i := i
      done;
      let sa_moves =
        Array.fold_left
          (fun acc (r : _ Anneal.Sa.result) -> acc + r.moves + r.calibration_moves)
          0 results
      in
      ( Slicing.Polish.Walker.expr results.(!best_i).Anneal.Sa.best,
        sa_moves,
        results.(!best_i).Anneal.Sa.final_temperature )
    in
    (* When the annealing search dies — injected fault, exceeded budget
       — the instance keeps the affinity-greedy chain layout: legal by
       construction of the slicing evaluation, just not optimized. *)
    let best_expr, sa_moves, final_temperature =
      Guard.Supervisor.protect ~stage:"floorplan.sa"
        ~fallback:(fun _ -> (chain_expr ~n_blocks ~order:chain, 0, 0.0))
        search
    in
    result_of_expr ~leaves ~budget ~pairs ~fixed_pos ~config ~n_blocks ~sa_moves
      ~final_temperature best_expr
  end

