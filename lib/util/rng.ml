(* The 64-bit state lives in 8 bytes rather than a mutable [int64]
   field: writing an [int64] field boxes it, and the annealer draws
   several numbers per move. The byte order is irrelevant, only this
   module reads it. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let state t = get64 t 0

let copy t = of_state (state t)

let set_state t s = set64 t 0 s

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  let z = s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = next t

let split t = of_state (next t)

let int t n =
  assert (n > 0);
  let mask = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int n))

let float t x =
  (* 53 random bits mapped to [0,1). *)
  let b = Int64.shift_right_logical (next t) 11 in
  let u = Int64.to_float b /. 9007199254740992.0 in
  u *. x

let bool t = Int64.logand (next t) 1L = 1L

let range t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-12 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))
