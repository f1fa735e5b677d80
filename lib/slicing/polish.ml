type op = H | V

type elt =
  | Operand of int
  | Operator of op

(* One int per element: H -> 0, V -> 1, operand i -> i + 2 (the cost
   memo's packing). Every value of [t] is normalized: [initial] and
   [initial_random] build normalized chains, [of_elements] validates,
   and the moves preserve normalization. *)
type t = int array

let[@inline] is_operand c = c >= 2

let encode = function Operator H -> 0 | Operator V -> 1 | Operand i -> i + 2

let decode c = if c = 0 then Operator H else if c = 1 then Operator V else Operand (c - 2)

let is_normalized e =
  let n = Array.length e in
  if n = 0 then false
  else begin
    let ok = ref true in
    let operands = ref 0 and operators = ref 0 in
    for i = 0 to n - 1 do
      (match e.(i) with
      | Operand _ -> incr operands
      | Operator o ->
        incr operators;
        (* no two adjacent equal operators *)
        if i > 0 then
          (match e.(i - 1) with Operator o' when o' = o -> ok := false | _ -> ()));
      if !operators >= !operands then ok := false
    done;
    !ok && !operands = !operators + 1
  end

(* The chain [0 1 V 2 H 3 V ...]. *)
let initial ~n =
  assert (n >= 1);
  let e = Array.make ((2 * n) - 1) 2 in
  for i = 1 to n - 1 do
    e.((2 * i) - 1) <- i + 2;
    e.(2 * i) <- (if i land 1 = 1 then 1 else 0)
  done;
  e

let initial_random rng ~n =
  let e = initial ~n in
  (* Shuffle the operand values across operand positions. *)
  let positions = Array.init n (fun k -> if k = 0 then 0 else (2 * k) - 1) in
  let values = Array.map (fun i -> e.(i)) positions in
  Util.Rng.shuffle rng values;
  Array.iteri (fun k pos -> e.(pos) <- values.(k)) positions;
  e

let elements t = Array.map decode t

let get (t : t) i = decode t.(i)

let code (t : t) i = t.(i)

(* A normalized expression of length [2n - 1] holds [n] operands. *)
let operand_count t = (Array.length t + 1) / 2

let length t = Array.length t

let of_elements e =
  if not (is_normalized e) then invalid_arg "Polish.of_elements: not normalized";
  Array.map
    (function
      | Operand i when i < 0 -> invalid_arg "Polish.of_elements: negative operand"
      | x -> encode x)
    e

(* The moves find their positions by scanning and copy only the
   expression they return; [no_move] (never a valid expression) stands
   for "no legal application". Each draws from [rng] exactly what the
   reference formulation (build the candidate array, pick from it)
   draws, so trajectories do not depend on how a move is written. *)
let no_move : t = [||]

let swapped t p q =
  let e = Array.copy t in
  let tmp = e.(p) in
  e.(p) <- e.(q);
  e.(q) <- tmp;
  e

(* Position of the [i]-th operand (0-based) at or after position [from]. *)
let rec nth_operand t from i =
  if is_operand t.(from) then if i = 0 then from else nth_operand t (from + 1) (i - 1)
  else nth_operand t (from + 1) i

(* M1: swap two adjacent operands (adjacent in the subsequence of
   operands, not necessarily in the array). *)
let m1 rng t =
  let n = operand_count t in
  if n < 2 then no_move
  else begin
    let i = Util.Rng.int rng (n - 1) in
    let p = nth_operand t 0 i in
    swapped t p (nth_operand t (p + 1) 0)
  end

let is_chain_start t i = (not (is_operand t.(i))) && (i = 0 || is_operand t.(i - 1))

(* M2: complement a maximal operator chain. A chain is picked as if from
   the array of chain starts in decreasing position order. *)
let m2 rng t =
  let len = Array.length t in
  let count = ref 0 in
  for i = 0 to len - 1 do
    if is_chain_start t i then incr count
  done;
  if !count = 0 then no_move
  else begin
    let skip = ref (!count - 1 - Util.Rng.int rng !count) in
    let s = ref 0 in
    while not (is_chain_start t !s && !skip = 0) do
      if is_chain_start t !s then decr skip;
      incr s
    done;
    let e = Array.copy t in
    let i = ref !s in
    while !i < len && not (is_operand e.(!i)) do
      e.(!i) <- e.(!i) lxor 1;
      incr i
    done;
    e
  end

(* Whether swapping positions [i] and [i + 1] of the normalized [t]
   keeps it normalized. Only the two swapped elements change, so only
   their neighbours and one prefix can break: an operand moving right
   past operator [o] puts [o] first, which needs [o] to differ from its
   new left neighbour and the prefix before it to hold at least two
   more operands than operators (balloting at the moved operator); an
   operator moving right only needs to differ from its new right
   neighbour. Two operands or two operators never form a legal M3
   pair. *)
let m3_swappable t i =
  let a = t.(i) and b = t.(i + 1) in
  if is_operand a then
    (not (is_operand b))
    && (i = 0 || t.(i - 1) <> b)
    && begin
      let ops = ref 0 in
      for k = 0 to i - 1 do
        if not (is_operand t.(k)) then incr ops
      done;
      (* operands before [i] = i - ops > ops + 1 *)
      (2 * !ops) + 1 < i
    end
  else is_operand b && (i + 2 >= Array.length t || t.(i + 2) <> a)

(* M3: swap an adjacent operand-operator pair, keeping normalization.
   Try random adjacent pairs a bounded number of times. *)
let rec m3_attempts rng t k =
  if k = 0 then no_move
  else begin
    let i = Util.Rng.int rng (Array.length t - 1) in
    if m3_swappable t i then swapped t i (i + 1) else m3_attempts rng t (k - 1)
  end

let m3 rng t = if Array.length t < 3 then no_move else m3_attempts rng t 16

let some e = if Array.length e = 0 then None else Some e

let move_m1 rng t = some (m1 rng t)
let move_m2 rng t = some (m2 rng t)
let move_m3 rng t = some (m3 rng t)

let move k rng t = match k with 0 -> m1 rng t | 1 -> m2 rng t | _ -> m3 rng t

(* The move order is [Util.Rng.shuffle] of [| 0; 1; 2 |] — the same two
   draws — kept in three ints: the first draw [j] swaps slot 2 with slot
   [j], the second swaps slot 1 with slot 0 when it draws 0. *)
let perturb rng t =
  let j = Util.Rng.int rng 3 in
  let s0 = if j = 0 then 2 else 0 and s1 = if j = 1 then 2 else 1 in
  let swap01 = Util.Rng.int rng 2 = 0 in
  let first = if swap01 then s1 else s0 and second = if swap01 then s0 else s1 in
  let e = move first rng t in
  if Array.length e > 0 then e
  else begin
    let e = move second rng t in
    if Array.length e > 0 then e
    else begin
      let e = move j rng t in
      if Array.length e > 0 then e else t
    end
  end

let pp ppf t =
  Array.iter
    (fun c ->
      if c = 0 then Format.fprintf ppf "H "
      else if c = 1 then Format.fprintf ppf "V "
      else Format.fprintf ppf "%d " (c - 2))
    t
