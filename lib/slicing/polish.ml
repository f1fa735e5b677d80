type op = H | V

type elt =
  | Operand of int
  | Operator of op

type t = elt array

let flip = function H -> V | V -> H

let is_operand = function Operand _ -> true | Operator _ -> false

(* Element [k] of [e] with positions [swap] and [swap + 1] exchanged
   ([swap] past the end: [e] itself), so M3 can test a swap without
   copying. *)
let view e swap k = if k = swap then e.(k + 1) else if k = swap + 1 then e.(k - 1) else e.(k)

let is_normalized_view e swap =
  let n = Array.length e in
  if n = 0 then false
  else begin
    let ok = ref true in
    let operands = ref 0 and operators = ref 0 in
    for i = 0 to n - 1 do
      (match view e swap i with
      | Operand _ -> incr operands
      | Operator o ->
        incr operators;
        (* no two adjacent equal operators *)
        if i > 0 then
          (match view e swap (i - 1) with Operator o' when o' = o -> ok := false | _ -> ()));
      if !operators >= !operands then ok := false
    done;
    !ok && !operands = !operators + 1
  end

let is_normalized e = is_normalized_view e (Array.length e)

let initial ~n =
  assert (n >= 1);
  if n = 1 then [| Operand 0 |]
  else begin
    let e = Array.make ((2 * n) - 1) (Operand 0) in
    e.(0) <- Operand 0;
    let op = ref V in
    for i = 1 to n - 1 do
      e.((2 * i) - 1) <- Operand i;
      e.(2 * i) <- Operator !op;
      op := flip !op
    done;
    e
  end

let initial_random rng ~n =
  let e = initial ~n in
  let operand_positions =
    Array.of_list
      (List.filter (fun i -> is_operand e.(i)) (List.init (Array.length e) (fun i -> i)))
  in
  (* Shuffle the operand values across operand positions. *)
  let values = Array.map (fun i -> e.(i)) operand_positions in
  Util.Rng.shuffle rng values;
  Array.iteri (fun k pos -> e.(pos) <- values.(k)) operand_positions;
  e

let elements t = Array.copy t

let get (t : t) i = t.(i)

let operand_count t =
  let c = ref 0 in
  for i = 0 to Array.length t - 1 do
    if is_operand t.(i) then incr c
  done;
  !c

let length t = Array.length t

let of_elements e =
  if not (is_normalized e) then invalid_arg "Polish.of_elements: not normalized";
  Array.copy e

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

let is_chain_start t i =
  (not (is_operand t.(i))) && (i = 0 || is_operand t.(i - 1))

let op_h = Operator H
let op_v = Operator V

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
      e.(!i) <- (match e.(!i) with Operator H -> op_v | Operator V | Operand _ -> op_h);
      incr i
    done;
    e
  end

(* M3: swap an adjacent operand-operator pair, keeping normalization.
   Try random adjacent pairs a bounded number of times. *)
let rec m3_attempts rng t k =
  if k = 0 then no_move
  else begin
    let i = Util.Rng.int rng (Array.length t - 1) in
    if is_operand t.(i) <> is_operand t.(i + 1) && is_normalized_view t i then
      swapped t i (i + 1)
    else m3_attempts rng t (k - 1)
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
    (fun e ->
      match e with
      | Operand i -> Format.fprintf ppf "%d " i
      | Operator H -> Format.fprintf ppf "H "
      | Operator V -> Format.fprintf ppf "V ")
    t
