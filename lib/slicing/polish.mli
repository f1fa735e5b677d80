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
    1 and operand [i] is [i + 2]. The moves, the annealer's cost memo
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

val perturb : Util.Rng.t -> t -> t
(** One of M1 / M2 / M3, chosen with equal probability. Always returns a
    normalized expression (falls back to another move kind if the chosen
    one has no legal application). *)

(** The individual moves, exposed for property testing. Each returns
    [None] when the move has no legal application to [t] (or, for M3,
    when no normalized swap was found within its bounded retries); a
    returned expression is always normalized and permutes the same
    operand multiset. *)

val move_m1 : Util.Rng.t -> t -> t option
val move_m2 : Util.Rng.t -> t -> t option
val move_m3 : Util.Rng.t -> t -> t option

val pp : Format.formatter -> t -> unit
