type op = H | V

type elt =
  | Operand of int
  | Operator of op

(* One int per element: H -> 0, V -> 1, operand i -> i + 2 (the
   instance cost table key's packing). Every value of [t] is normalized: [initial] and
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

let copy = Array.copy

(* Depth-first over positions, each position trying its codes in
   ascending order (H, V, then the unused operands), so expressions
   come out in ascending code order. An operator is legal when the
   prefix keeps more operands than operators after it and it differs
   from its left neighbour; an operand when one is unused. Neither rule
   can strand a prefix: with operands left one can always follow, and
   with none left the operators alternate down to the end. *)
let iter_normalized ?first ~n f =
  if n < 1 then invalid_arg "Polish.iter_normalized: n < 1";
  let len = (2 * n) - 1 in
  let e = Array.make len 0 and used = Array.make n false in
  let rec fill k operands operators =
    if k = len then f e
    else begin
      if operators + 1 < operands then
        for op = 0 to 1 do
          if e.(k - 1) <> op then begin
            e.(k) <- op;
            fill (k + 1) operands (operators + 1)
          end
        done;
      if operands < n then
        for i = 0 to n - 1 do
          if not used.(i) then begin
            used.(i) <- true;
            e.(k) <- i + 2;
            fill (k + 1) (operands + 1) operators;
            used.(i) <- false
          end
        done
    end
  in
  match first with
  | None -> fill 0 0 0
  | Some i ->
    if i < 0 || i >= n then invalid_arg "Polish.iter_normalized: first out of range";
    used.(i) <- true;
    e.(0) <- i + 2;
    fill 1 1 0

(* ---- the walker ---------------------------------------------------- *)

(* A walker moves one expression in place. Beside the codes it keeps
   [rank] (position -> operands before it, so an operand's rank) and
   [pos] (operand rank -> position): M1 reads both swap positions from
   [pos], and M3's balloting test reads the operators before position
   [i] as [i - rank.(i)]. Neither map changes under M1 (operands stay
   at operand positions) or M2 (operators stay operators); an M3 swap
   at [i] changes only [rank.(i + 1)] and one [pos] entry.

   With [bits > 0], [key] is the expression packed at [bits] bits per
   element, element 0 most significant (the instance cost table key):
   every code a move or an undo changes XORs its old and new values
   into [key] at its element's shift, so the key never needs
   re-packing.

   Each move records a one-level undo: [u_kind] is [undo_none], a swap
   of positions [u_a] and [u_b] (M1), the adjacent operand-operator
   swap at [u_a] (M3), or the complemented chain [u_a, u_b) (M2).

   [codes] is mutable only for the functional moves' scratch walker
   (below), which is re-pointed at each expression it moves. *)
type walker = {
  mutable codes : t;
  rank : int array;
  pos : int array;
  starts : int array;   (* M2's scratch: the chain starts, ascending *)
  bits : int;           (* 0: no key *)
  mutable key : int;    (* -1 without one *)
  mutable u_kind : int;
  mutable u_a : int;
  mutable u_b : int;
}

let undo_none = 0
let undo_swap = 1
let undo_pair = 2
let undo_chain = 3

module Walker = struct
  (* Rebuild [rank] and [pos] from [codes]. *)
  let index w =
    let r = ref 0 in
    for i = 0 to Array.length w.codes - 1 do
      w.rank.(i) <- !r;
      if is_operand w.codes.(i) then begin
        w.pos.(!r) <- i;
        incr r
      end
    done

  let create ?(bits = 0) ?(key = -1) e =
    let len = Array.length e in
    let bits = if key >= 0 then bits else 0 in
    let w =
      { codes = Array.copy e; rank = Array.make len 0; pos = Array.make ((len + 1) / 2) 0;
        starts = Array.make len 0; bits; key = (if bits > 0 then key else -1);
        u_kind = undo_none; u_a = 0; u_b = 0 }
    in
    index w;
    w

  let copy w =
    { w with codes = Array.copy w.codes; rank = Array.copy w.rank; pos = Array.copy w.pos;
             starts = Array.make (Array.length w.starts) 0 }

  let expr w = w.codes
  let key w = w.key
  let rank w i = w.rank.(i)
  let position w r = w.pos.(r)

  (* The shift of element [k] in the key. *)
  let[@inline] shift w k = (Array.length w.codes - 1 - k) * w.bits

  let swap w p q =
    let c = w.codes in
    let a = c.(p) and b = c.(q) in
    c.(p) <- b;
    c.(q) <- a;
    if w.bits > 0 then begin
      let d = a lxor b in
      w.key <- w.key lxor (d lsl shift w p) lxor (d lsl shift w q)
    end

  (* Swap the operand-operator pair at [i] and [i + 1], either way
     round, and move the operand's rank with it. *)
  let swap_pair w i =
    swap w i (i + 1);
    let r = w.rank.(i) in
    if is_operand w.codes.(i) then begin
      w.rank.(i + 1) <- r + 1;
      w.pos.(r) <- i
    end
    else begin
      w.rank.(i + 1) <- r;
      w.pos.(r) <- i + 1
    end

  let complement w a b =
    for k = a to b - 1 do
      w.codes.(k) <- w.codes.(k) lxor 1;
      if w.bits > 0 then w.key <- w.key lxor (1 lsl shift w k)
    done

  let record w kind a b =
    w.u_kind <- kind;
    w.u_a <- a;
    w.u_b <- b

  (* Each move returns whether it applied, and draws from [rng] exactly
     what the reference formulation (build the candidate array, pick
     from it) draws, so trajectories do not depend on how a move is
     written. *)

  (* M1: swap two adjacent operands (adjacent in the subsequence of
     operands, not necessarily in the array). *)
  let m1 rng w =
    let n = Array.length w.pos in
    n >= 2
    && begin
      let i = Util.Rng.int rng (n - 1) in
      let p = w.pos.(i) and q = w.pos.(i + 1) in
      swap w p q;
      record w undo_swap p q;
      true
    end

  (* M2: complement a maximal operator chain. A chain is picked as if
     from the array of chain starts in decreasing position order. *)
  let m2 rng w =
    let c = w.codes and starts = w.starts in
    let len = Array.length c in
    let count = ref 0 in
    for i = 0 to len - 1 do
      if (not (is_operand c.(i))) && (i = 0 || is_operand c.(i - 1)) then begin
        starts.(!count) <- i;
        incr count
      end
    done;
    !count > 0
    && begin
      let s = starts.(!count - 1 - Util.Rng.int rng !count) in
      let e = ref s in
      while !e < len && not (is_operand c.(!e)) do
        incr e
      done;
      complement w s !e;
      record w undo_chain s !e;
      true
    end

  (* Whether swapping positions [i] and [i + 1] keeps the expression
     normalized. Only the two swapped elements change, so only their
     neighbours and one prefix can break: an operand moving right past
     operator [o] puts [o] first, which needs [o] to differ from its new
     left neighbour and the prefix before it to hold at least two more
     operands than operators (balloting at the moved operator: with
     [i - rank i] operators before [i], [rank i > i - rank i + 1]); an
     operator moving right only needs to differ from its new right
     neighbour. Two operands or two operators never form a legal M3
     pair. *)
  let m3_swappable w i =
    let c = w.codes in
    let a = c.(i) and b = c.(i + 1) in
    if is_operand a then
      (not (is_operand b))
      && (i = 0 || c.(i - 1) <> b)
      && (2 * (i - w.rank.(i))) + 1 < i
    else is_operand b && (i + 2 >= Array.length c || c.(i + 2) <> a)

  (* M3: swap an adjacent operand-operator pair, keeping normalization.
     Try random adjacent pairs a bounded number of times. *)
  let rec m3_attempts rng w k =
    k > 0
    && begin
      let i = Util.Rng.int rng (Array.length w.codes - 1) in
      if m3_swappable w i then begin
        swap_pair w i;
        record w undo_pair i 0;
        true
      end
      else m3_attempts rng w (k - 1)
    end

  let m3 rng w = Array.length w.codes >= 3 && m3_attempts rng w 16

  let move k rng w = match k with 0 -> m1 rng w | 1 -> m2 rng w | _ -> m3 rng w

  (* The move order is [Util.Rng.shuffle] of [| 0; 1; 2 |] — the same
     two draws — kept in three ints: the first draw [j] swaps slot 2
     with slot [j], the second swaps slot 1 with slot 0 when it draws
     0. *)
  let perturb rng w =
    w.u_kind <- undo_none;
    let j = Util.Rng.int rng 3 in
    let s0 = if j = 0 then 2 else 0 and s1 = if j = 1 then 2 else 1 in
    let swap01 = Util.Rng.int rng 2 = 0 in
    let first = if swap01 then s1 else s0 and second = if swap01 then s0 else s1 in
    ignore (move first rng w || move second rng w || move j rng w : bool)

  let undo w =
    let k = w.u_kind in
    if k = undo_swap then swap w w.u_a w.u_b
    else if k = undo_pair then swap_pair w w.u_a
    else if k = undo_chain then complement w w.u_a w.u_b;
    w.u_kind <- undo_none
end

(* The functional moves: a walker over a copy of [t], moved once. The
   walker is a per-domain scratch one of [t]'s length, re-pointed at
   the copy, so a functional move allocates only the expression it
   returns. *)
let scratch = Domain.DLS.new_key (fun () -> Walker.create (initial ~n:1))

let walker_over t =
  let w = Domain.DLS.get scratch in
  if Array.length w.codes = Array.length t then begin
    w.codes <- Array.copy t;
    Walker.index w;
    w
  end
  else begin
    let w = Walker.create t in
    Domain.DLS.set scratch w;
    w
  end

let perturb rng t =
  let w = walker_over t in
  Walker.perturb rng w;
  w.codes

let applied move rng t =
  let w = walker_over t in
  if move rng w then Some w.codes else None

let move_m1 rng t = applied Walker.m1 rng t
let move_m2 rng t = applied Walker.m2 rng t
let move_m3 rng t = applied Walker.m3 rng t

let pp ppf t =
  Array.iter
    (fun c ->
      if c = 0 then Format.fprintf ppf "H "
      else if c = 1 then Format.fprintf ppf "V "
      else Format.fprintf ppf "%d " (c - 2))
    t
