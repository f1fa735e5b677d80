(* Compressed sparse rows, built once: the successors of [u] are
   [fwd.(fwd_off.(u)) .. fwd.(fwd_off.(u + 1) - 1)], its predecessors
   likewise in [bwd], each in edge order. *)
type t = { fwd_off : int array; fwd : int array; bwd_off : int array; bwd : int array }

let rows n ~key ~value =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun k -> off.(k + 1) <- off.(k + 1) + 1) key;
  for k = 1 to n do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  let next = Array.sub off 0 n in
  let vals = Array.make (Array.length key) 0 in
  Array.iteri
    (fun i k ->
      vals.(next.(k)) <- value.(i);
      next.(k) <- next.(k) + 1)
    key;
  (off, vals)

let of_edges n ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Digraph.of_edges: src and dst differ in length";
  let in_range v = v >= 0 && v < n in
  if not (Array.for_all in_range src && Array.for_all in_range dst) then
    invalid_arg "Digraph.of_edges: node out of range";
  let fwd_off, fwd = rows n ~key:src ~value:dst in
  let bwd_off, bwd = rows n ~key:dst ~value:src in
  { fwd_off; fwd; bwd_off; bwd }

let node_count t = Array.length t.fwd_off - 1

let edge_count t = Array.length t.fwd

let slice off ends u = List.init (off.(u + 1) - off.(u)) (fun i -> ends.(off.(u) + i))

let succ t u = slice t.fwd_off t.fwd u

let pred t v = slice t.bwd_off t.bwd v

let succ_iter t u f =
  for q = t.fwd_off.(u) to t.fwd_off.(u + 1) - 1 do
    f t.fwd.(q)
  done

let pred_iter t v f =
  for q = t.bwd_off.(v) to t.bwd_off.(v + 1) - 1 do
    f t.bwd.(q)
  done

let out_degree t u = t.fwd_off.(u + 1) - t.fwd_off.(u)

let in_degree t v = t.bwd_off.(v + 1) - t.bwd_off.(v)

(* The source of each edge, in [fwd] order. *)
let sources t =
  let src = Array.make (edge_count t) 0 in
  for u = 0 to node_count t - 1 do
    Array.fill src t.fwd_off.(u) (out_degree t u) u
  done;
  src

let transpose t = of_edges (node_count t) ~src:t.fwd ~dst:(sources t)

let map_nodes t ~keep =
  let n = node_count t in
  let new_of_old = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if keep v then begin
      new_of_old.(v) <- !count;
      incr count
    end
  done;
  let old_of_new = Array.make !count 0 in
  Array.iteri (fun v nv -> if nv >= 0 then old_of_new.(nv) <- v) new_of_old;
  let src = sources t in
  let kept =
    List.init (edge_count t) Fun.id
    |> List.filter (fun e -> new_of_old.(src.(e)) >= 0 && new_of_old.(t.fwd.(e)) >= 0)
    |> Array.of_list
  in
  let renamed ends = Array.map (fun e -> new_of_old.(ends.(e))) kept in
  (of_edges !count ~src:(renamed src) ~dst:(renamed t.fwd), old_of_new, new_of_old)
