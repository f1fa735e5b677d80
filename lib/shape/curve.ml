(* A curve is stored flat: point i is (a.(2i), a.(2i+1)) = (w, h), with
   widths strictly increasing and heights strictly decreasing along the
   array (a Pareto staircase). The empty array is the curve of a block
   without macros (unconstrained).

   The flat form lets an evaluator keep the curves it derives in
   preallocated buffers: every function below that takes a buffer and a
   point count [n] reads only the first [n] points, and the whole-curve
   functions are those applied with [n = size t]. A float handed to a
   function of another module is boxed, so the buffer functions take
   their float inputs and outputs through slots of a caller-owned float
   array instead. *)

type t = float array

let unconstrained = [||]

let size t = Array.length t / 2

let is_unconstrained t = Array.length t = 0

let pareto pts =
  let pts = List.filter (fun (w, h) -> w > 0.0 && h > 0.0) pts in
  let sorted =
    List.sort
      (fun (w1, h1) (w2, h2) -> if w1 = w2 then compare h1 h2 else compare w1 w2)
      pts
  in
  (* Scan by increasing width keeping strictly decreasing heights. *)
  let rec keep best_h = function
    | [] -> []
    | (w, h) :: rest -> if h < best_h then (w, h) :: keep h rest else keep best_h rest
  in
  keep infinity sorted

let of_list l =
  let a = Array.make (2 * List.length l) 0.0 in
  List.iteri
    (fun i (w, h) ->
      a.(2 * i) <- w;
      a.((2 * i) + 1) <- h)
    l;
  a

let to_list a n = List.init n (fun i -> (a.(2 * i), a.((2 * i) + 1)))

let of_points pts =
  match pareto pts with
  | [] -> invalid_arg "Curve.of_points: no valid points"
  | l -> of_list l

let of_macro ~w ~h ?(rotate = true) () =
  assert (w > 0.0 && h > 0.0);
  if rotate && w <> h then of_points [ (w, h); (h, w) ] else of_points [ (w, h) ]

let points t = to_list t (size t)

(* ---- queries over the first [n] points of a buffer ------------------ *)

let eps = 1e-9

let fits_box a n box i =
  let w = box.(i) +. eps and h = box.(i + 1) +. eps in
  let found = ref (n = 0) in
  let k = ref 0 in
  while (not !found) && !k < n do
    if a.(2 * !k) <= w && a.((2 * !k) + 1) <= h then found := true;
    incr k
  done;
  !found

let min_extent a n ~width q ~cross ~out =
  if n = 0 then begin
    q.(out) <- 0.0;
    true
  end
  else begin
    (* [width]: least width among points no taller than the cross
       dimension; otherwise least height among points no wider. *)
    let c = q.(cross) +. eps in
    let off_c = if width then 1 else 0 in
    let off_m = 1 - off_c in
    let found = ref false and best = ref 0.0 in
    for k = 0 to n - 1 do
      if a.((2 * k) + off_c) <= c then begin
        let m = a.((2 * k) + off_m) in
        if not !found then begin
          found := true;
          best := m
        end
        else if not (!best <= m) then best := m
      end
    done;
    q.(out) <- !best;
    !found
  end

let min_area_box a n q ~out =
  n > 0
  && begin
       let best = ref 0 in
       for k = 0 to n - 1 do
         if a.(2 * k) *. a.((2 * k) + 1) < a.(2 * !best) *. a.((2 * !best) + 1) then
           best := k
       done;
       q.(out) <- a.(2 * !best);
       q.(out + 1) <- a.((2 * !best) + 1);
       true
     end

let fits t ~w ~h = fits_box t (size t) [| w; h |] 0

let min_area_point t =
  let q = [| 0.0; 0.0 |] in
  if min_area_box t (size t) q ~out:0 then Some (q.(0), q.(1)) else None

let min_area t =
  match min_area_point t with
  | None -> 0.0
  | Some (w, h) -> w *. h

(* ---- composition ---------------------------------------------------- *)

let blit_points src n dst =
  Array.blit src 0 dst 0 (2 * n);
  n

(* The classical staircase merge, in place of a cartesian product +
   sort: both inputs are strict staircases, so starting from the
   narrowest pair and advancing the curve holding the current maximum
   height enumerates exactly the undominated combinations, already in
   increasing-width order — advancing the other curve could not lower
   the max but would widen the sum, and any skipped pair keeps the
   height of some emitted point at a larger width. A stack is the same
   merge transposed: heights add, widths max, and the walk runs from the
   widest (lowest) pair, so its output is reversed back into staircase
   order at the end. The emitted floats are the [w1 +. w2] / [max h1 h2]
   (or transposed) the product would produce, so the result is bit for
   bit [pareto] of the full product (the shape property suite asserts
   this against the cartesian reference). *)
let merge ~stack a na b nb dst =
  if na = 0 then blit_points b nb dst
  else if nb = 0 then blit_points a na dst
  else begin
    (* offsets of the adding and the maxed coordinate within a point *)
    let o_add = if stack then 1 else 0 in
    let o_max = 1 - o_add in
    let k = ref 0 and i = ref 0 and j = ref 0 in
    while !i < na && !j < nb do
      let pa = 2 * (if stack then na - 1 - !i else !i) in
      let pb = 2 * (if stack then nb - 1 - !j else !j) in
      let ma = a.(pa + o_max) and mb = b.(pb + o_max) in
      dst.((2 * !k) + o_add) <- a.(pa + o_add) +. b.(pb + o_add);
      dst.((2 * !k) + o_max) <- (if ma >= mb then ma else mb);
      incr k;
      if ma > mb then incr i else if mb > ma then incr j else (incr i; incr j)
    done;
    let n = !k in
    if stack then
      for m = 0 to (n / 2) - 1 do
        let p = 2 * m and q = 2 * (n - 1 - m) in
        let w = dst.(p) and h = dst.(p + 1) in
        dst.(p) <- dst.(q);
        dst.(p + 1) <- dst.(q + 1);
        dst.(q) <- w;
        dst.(q + 1) <- h
      done;
    n
  end

let compose ~stack a b =
  let dst = Array.make (Array.length a + Array.length b) 0.0 in
  let n = merge ~stack a (size a) b (size b) dst in
  Array.sub dst 0 (2 * n)

let compose_h a b = compose ~stack:false a b

let compose_v a b = compose ~stack:true a b

let compose_best a b =
  let h = compose_h a b and v = compose_v a b in
  (* either is unconstrained only if an input was *)
  if is_unconstrained h || is_unconstrained v then h
  else of_points (points h @ points v)

(* Keep the extremes and sample the interior evenly. The picked indices
   strictly increase and never fall behind their slot, so the sampling
   runs in place; a sample of a strict staircase is one already, for
   which [pareto] is the identity, so only a degenerate sample (equal
   neighbours) takes the general path. *)
let prune_in_place ~max_points a n =
  assert (max_points >= 2);
  if n <= max_points then n
  else begin
    for i = 0 to max_points - 1 do
      let idx = i * (n - 1) / (max_points - 1) in
      a.(2 * i) <- a.(2 * idx);
      a.((2 * i) + 1) <- a.((2 * idx) + 1)
    done;
    let strict = ref (a.(0) > 0.0) in
    for i = 0 to max_points - 1 do
      if not (a.((2 * i) + 1) > 0.0) then strict := false;
      if i > 0 && not (a.(2 * i) > a.(2 * (i - 1)) && a.((2 * i) + 1) < a.((2 * i) - 1))
      then strict := false
    done;
    if !strict then max_points
    else begin
      let c = of_points (to_list a max_points) in
      blit_points c (size c) a
    end
  end

let prune ~max_points t =
  let a = Array.copy t in
  let n = prune_in_place ~max_points a (size t) in
  if n = size t then t else Array.sub a 0 (2 * n)

let pp ppf t =
  if is_unconstrained t then Format.pp_print_string ppf "<unconstrained>"
  else begin
    let pp_pt ppf (w, h) = Format.fprintf ppf "(%.2f,%.2f)" w h in
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp_pt)
      (points t)
  end
