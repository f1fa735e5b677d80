(** Normalized Polish expressions for slicing floorplans (Wong–Liu, DAC
    1986; the paper's layout representation, §IV-E).

    A Polish expression is a postfix sequence of operands (block indices)
    and the cut operators [V] (vertical cut line: children side by side)
    and [H] (horizontal cut line: children stacked). Normalization means
    the balloting property holds (every prefix has more operands than
    operators) and no two adjacent operators are equal (each slicing tree
    has a unique normalized expression).

    The three perturbations are the paper's (and Wong–Liu's):
    - M1: swap two adjacent operands;
    - M2: complement a maximal chain of operators;
    - M3: swap an adjacent operand–operator pair (retrying until the
      result stays normalized).

    An expression is stored as one [int] per element: [H] is 0, [V] is
    1 and operand [i] is [i + 2]. The moves, the instance cost table
    key, {!Inc}'s diff and the tree builders read these codes directly
    (through {!code} or the coercion [(t :> int array)], never written
    through); {!elements} and {!get} decode them for everything else. *)

type op = H | V

type elt =
  | Operand of int
  | Operator of op

type t = private int array

val initial : n:int -> t
(** The chain [0 1 V 2 H 3 V ...] with alternating operators; requires
    [n >= 1]. *)

val initial_random : Util.Rng.t -> n:int -> t
(** Random operand order on the same alternating chain skeleton. *)

val elements : t -> elt array
(** The elements, decoded into a fresh array. *)

val get : t -> int -> elt
(** Element [i], decoded. *)

val code : t -> int -> int
(** O(1) code of element [i] (see above): [get t i] is [Operator H]
    for 0, [Operator V] for 1 and [Operand (c - 2)] for any other
    code [c]. *)

val operand_count : t -> int

val length : t -> int

val is_normalized : elt array -> bool
(** Balloting property + no equal adjacent operators + exactly one more
    operand than operators. *)

val of_elements : elt array -> t
(** Validates normalization and non-negative operands; raises
    [Invalid_argument] otherwise. *)

val copy : t -> t

(** {1 Enumeration} *)

val iter_normalized : ?first:int -> n:int -> (t -> unit) -> unit
(** [iter_normalized ~n f] calls [f] once on every normalized
    expression whose operands are [0 .. n - 1], each exactly once — one
    per slicing tree: 4, 36, 528 and 10,800 of them for [n] = 2..5 — in
    ascending code order (element 0 first, compared by {!code}). [f]
    receives one buffer, rewritten between calls: it must {!copy} what
    it keeps. With [first], only the expressions whose element 0 is
    operand [first]; the runs for [first] = 0 .. n - 1, concatenated,
    are the whole sequence. Raises [Invalid_argument] when [n < 1] or
    [first] is not an operand. *)

(** {1 Moving in place}

    A walker owns one mutable expression and moves it in place, the way
    the annealers do: {!Walker.perturb} applies one move and records a
    one-level undo, {!Walker.undo} reverts it. M1 and M3 find their
    positions in O(1) (the walker keeps the operand rank -> position map
    and its inverse) and M2 scans the expression once. The functional
    moves below are wrappers over the walker, so the moves have one
    implementation. *)

type walker

module Walker : sig
  val create : ?bits:int -> ?key:int -> t -> walker
  (** A walker over a copy of the expression. With [bits > 0] and
      [key >= 0], [key] must be the expression packed at [bits] bits per
      element, element 0 most significant (the instance cost table key,
      see [Layout_gen]); every move and every undo then keeps {!key}
      equal to that packing of the current expression. Otherwise {!key}
      is [-1]. *)

  val copy : walker -> walker
  (** An independent walker in the same state, undo record included. *)

  val expr : walker -> t
  (** The current expression, aliased: the next move or undo changes
      it. *)

  val key : walker -> int
  (** The packed key of the current expression, or [-1]. *)

  val perturb : Util.Rng.t -> walker -> unit
  (** One of M1 / M2 / M3, chosen with equal probability, applied in
      place; falls back to another move kind if the chosen one has no
      legal application, and leaves the expression as it was if none
      has. Draws from the RNG exactly what the functional {!perturb}
      draws. *)

  val undo : walker -> unit
  (** Reverts the last {!perturb} (codes, maps and key); a no-op when
      that perturb applied nothing or was already undone. One level
      only. *)

  val rank : walker -> int -> int
  (** The number of operands before position [i]. Exposed for tests. *)

  val position : walker -> int -> int
  (** The position of the operand of rank [r]. Exposed for tests. *)
end

(** {1 Functional moves} *)

val perturb : Util.Rng.t -> t -> t
(** One of M1 / M2 / M3, chosen with equal probability. Always returns a
    normalized expression (falls back to another move kind if the chosen
    one has no legal application). [Walker.perturb] on a walker over a
    copy of the expression, which it returns: the only allocation. *)

(** The individual moves, exposed for property testing. Each returns
    [None] when the move has no legal application to [t] (or, for M3,
    when no normalized swap was found within its bounded retries); a
    returned expression is always normalized and permutes the same
    operand multiset. *)

val move_m1 : Util.Rng.t -> t -> t option
val move_m2 : Util.Rng.t -> t -> t option
val move_m3 : Util.Rng.t -> t -> t option

val pp : Format.formatter -> t -> unit
