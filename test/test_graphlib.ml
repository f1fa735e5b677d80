(* Tests for the graph substrate, including the multi-source BFS at the
   heart of target-area assignment. *)

module G = Graphlib.Digraph
module Tr = Graphlib.Traversal

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* The graph on nodes [0 .. n-1] with the listed edges, in order. *)
let graph n edges =
  G.of_edges n ~src:(Array.of_list (List.map fst edges)) ~dst:(Array.of_list (List.map snd edges))

(* chain 0 -> 1 -> 2 -> ... -> n-1 *)
let chain n = graph n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let test_digraph_basic () =
  let g = graph 3 [ (0, 1); (0, 2); (1, 2) ] in
  Alcotest.(check int) "nodes" 3 (G.node_count g);
  Alcotest.(check int) "edges" 3 (G.edge_count g);
  Alcotest.(check (list int)) "succ 0" [ 1; 2 ] (G.succ g 0);
  Alcotest.(check (list int)) "pred 2" [ 0; 1 ] (G.pred g 2);
  Alcotest.(check int) "out degree" 2 (G.out_degree g 0);
  Alcotest.(check int) "in degree" 2 (G.in_degree g 2);
  Alcotest.(check (list int)) "no succ" [] (G.succ g 2)

let test_digraph_parallel_edges () =
  let g = graph 2 [ (0, 1); (0, 1) ] in
  Alcotest.(check int) "parallel edges kept" 2 (G.edge_count g);
  Alcotest.(check (list int)) "succ twice" [ 1; 1 ] (G.succ g 0)

let test_transpose () =
  let g = chain 4 in
  let t = G.transpose g in
  Alcotest.(check int) "edge count preserved" (G.edge_count g) (G.edge_count t);
  Alcotest.(check (list int)) "reversed edge" [ 0 ] (G.succ t 1);
  Alcotest.(check (list int)) "reversed pred" [ 1 ] (G.pred t 0)

let test_map_nodes () =
  let g = chain 5 in
  let sub, old_of_new, new_of_old = G.map_nodes g ~keep:(fun v -> v <> 2) in
  Alcotest.(check int) "kept nodes" 4 (G.node_count sub);
  Alcotest.(check int) "dropped marker" (-1) new_of_old.(2);
  Alcotest.(check int) "edges through dropped vanish" 2 (G.edge_count sub);
  Alcotest.(check int) "old id recovered" 3 old_of_new.(new_of_old.(3))

(* Forward BFS distance of every node from the source set, as
   [bfs_layers] reports it; [-1] when unreachable. *)
let distances g ~sources =
  let d = Array.make (G.node_count g) (-1) in
  Tr.bfs_layers g ~sources ~direction:`Fwd
    ~visit:(fun ~node ~dist ~parent:_ -> d.(node) <- dist)
    ();
  d

let test_bfs_distances () =
  let g = chain 5 in
  let d = distances g ~sources:[ 0 ] in
  Alcotest.(check (array int)) "chain distances" [| 0; 1; 2; 3; 4 |] d;
  let d2 = distances g ~sources:[ 2 ] in
  Alcotest.(check int) "unreachable" (-1) d2.(0);
  Alcotest.(check int) "forward only" 2 d2.(4)

let test_bfs_multi_source () =
  let g = chain 5 in
  let d = distances g ~sources:[ 0; 3 ] in
  Alcotest.(check (array int)) "two sources" [| 0; 1; 2; 0; 1 |] d

let test_bfs_expand_gate () =
  let g = chain 4 in
  (* do not expand past node 1 *)
  let seen = ref [] in
  Tr.bfs_layers g ~sources:[ 0 ] ~direction:`Fwd
    ~visit:(fun ~node ~dist:_ ~parent:_ -> seen := node :: !seen)
    ~expand:(fun v -> v <> 1)
    ();
  Alcotest.(check (list int)) "stopped at gate" [ 0; 1 ] (List.rev !seen)

let test_bfs_backward () =
  let g = chain 4 in
  let seen = ref [] in
  Tr.bfs_layers g ~sources:[ 3 ] ~direction:`Bwd
    ~visit:(fun ~node ~dist ~parent:_ -> seen := (node, dist) :: !seen)
    ();
  Alcotest.(check (list (pair int int))) "backward layers"
    [ (3, 0); (2, 1); (1, 2); (0, 3) ]
    (List.rev !seen)

let test_multi_source_nearest () =
  (* path 0 - 1 - 2 - 3 - 4 (directed edges forward, but the nearest
     search is undirected) with sources at 0 (label 7) and 4 (label 9) *)
  let g = chain 5 in
  let label = Tr.multi_source_nearest g ~sources:[ (0, 7); (4, 9) ] in
  Alcotest.(check int) "source keeps label" 7 label.(0);
  Alcotest.(check int) "near left" 7 label.(1);
  Alcotest.(check int) "near right" 9 label.(3);
  Alcotest.(check int) "other source" 9 label.(4)

let test_multi_source_nearest_undirected () =
  (* edges point away from node 2; both ends must still be labelled *)
  let g = graph 3 [ (2, 0); (2, 1) ] in
  let label = Tr.multi_source_nearest g ~sources:[ (0, 1) ] in
  Alcotest.(check int) "reaches against edge direction" 1 label.(2);
  Alcotest.(check int) "reaches across" 1 label.(1)

let test_topological () =
  let g = graph 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  (match Tr.topological_order g with
  | None -> Alcotest.fail "expected topological order"
  | Some order ->
    let posn = Array.make 4 0 in
    Array.iteri (fun i v -> posn.(v) <- i) order;
    Alcotest.(check bool) "0 before 1" true (posn.(0) < posn.(1));
    Alcotest.(check bool) "1 before 3" true (posn.(1) < posn.(3));
    Alcotest.(check bool) "2 before 3" true (posn.(2) < posn.(3)));
  let cyc = graph 2 [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "cycle detected" true (Tr.topological_order cyc = None)

let test_reachable () =
  let g = chain 4 in
  let r = Tr.reachable_set g ~sources:[ 1 ] in
  Alcotest.(check (array bool)) "reachable" [| false; true; true; true |] r

(* random DAG: edges only from smaller to bigger ids *)
let dag_arb =
  QCheck.(
    map
      (fun pairs ->
        List.filter_map
          (fun (a, b) ->
            let a = a mod 20 and b = b mod 20 in
            if a < b then Some (a, b) else if b < a then Some (b, a) else None)
          pairs)
      (list (pair (int_range 0 19) (int_range 0 19))))

let topo_respects_edges =
  qtest "topological order respects every DAG edge" dag_arb (fun edges ->
      let g = graph 20 edges in
      match Tr.topological_order g with
      | None -> false
      | Some order ->
        let posn = Array.make 20 0 in
        Array.iteri (fun i v -> posn.(v) <- i) order;
        List.for_all (fun (a, b) -> posn.(a) < posn.(b)) edges)

let bfs_dist_shortest =
  qtest "bfs distance <= any edge relaxation" dag_arb (fun edges ->
      let g = graph 20 edges in
      let d = distances g ~sources:[ 0 ] in
      List.for_all
        (fun (a, b) -> d.(a) < 0 || (d.(b) >= 0 && d.(b) <= d.(a) + 1))
        edges)

(* ---- reference model ------------------------------------------------ *)

(* A graph as its plain edge list: everything the CSR graph and the
   traversals answer, computed the slow, obvious way. *)
module Ref = struct
  type t = { n : int; edges : (int * int) list }

  let succ r u = List.filter_map (fun (a, b) -> if a = u then Some b else None) r.edges

  let pred r v = List.filter_map (fun (a, b) -> if b = v then Some a else None) r.edges

  let nodes r = List.init r.n Fun.id

  (* node by node, in successor order: the order [transpose] and
     [map_nodes] read the edges in *)
  let csr_edges r = List.concat_map (fun u -> List.map (fun v -> (u, v)) (succ r u)) (nodes r)

  let transpose r = { r with edges = List.map (fun (u, v) -> (v, u)) (csr_edges r) }

  let map_nodes r ~keep =
    let old_of_new = List.filter keep (nodes r) in
    let new_of_old v =
      let rec find i = function
        | [] -> -1
        | x :: rest -> if x = v then i else find (i + 1) rest
      in
      find 0 old_of_new
    in
    let edges =
      List.filter_map
        (fun (u, v) ->
          if keep u && keep v then Some (new_of_old u, new_of_old v) else None)
        (csr_edges r)
    in
    ( { n = List.length old_of_new; edges },
      Array.of_list old_of_new,
      Array.init r.n new_of_old )

  (* breadth-first visits as (node, dist, parent), sources first *)
  let bfs r ~sources ~next =
    let dist = Array.make r.n (-1) in
    let visits = ref [] in
    let q = Queue.create () in
    let enqueue v d parent =
      if dist.(v) < 0 then begin
        dist.(v) <- d;
        visits := (v, d, parent) :: !visits;
        Queue.push v q
      end
    in
    List.iter (fun s -> enqueue s 0 (-1)) sources;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter (fun v -> enqueue v (dist.(u) + 1) u) (next u)
    done;
    List.rev !visits

  let distances r ~sources =
    let d = Array.make r.n (-1) in
    List.iter (fun (v, k, _) -> d.(v) <- k) (bfs r ~sources ~next:(succ r));
    d

  let nearest r ~sources =
    let label = Array.make r.n (-1) in
    let q = Queue.create () in
    let enqueue v l =
      if label.(v) < 0 then begin
        label.(v) <- l;
        Queue.push v q
      end
    in
    List.iter (fun (v, l) -> enqueue v l) sources;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter (fun v -> enqueue v label.(u)) (succ r u @ pred r u)
    done;
    label

  (* Kahn's algorithm over the edge list *)
  let topological_order r =
    let indeg = Array.of_list (List.map (fun v -> List.length (pred r v)) (nodes r)) in
    let q = Queue.create () in
    List.iter (fun v -> if indeg.(v) = 0 then Queue.push v q) (nodes r);
    let order = ref [] in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      order := u :: !order;
      List.iter
        (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.push v q)
        (succ r u)
    done;
    if List.length !order = r.n then Some (Array.of_list (List.rev !order)) else None
end

let of_ref (r : Ref.t) = graph r.Ref.n r.Ref.edges

(* Everything [G] answers about one node-level view, against the model. *)
let same_graph g (r : Ref.t) =
  let iter f u = let l = ref [] in f g u (fun v -> l := v :: !l); List.rev !l in
  G.node_count g = r.Ref.n
  && G.edge_count g = List.length r.Ref.edges
  && List.for_all
       (fun u ->
         G.succ g u = Ref.succ r u
         && G.pred g u = Ref.pred r u
         && iter G.succ_iter u = Ref.succ r u
         && iter G.pred_iter u = Ref.pred r u
         && G.out_degree g u = List.length (Ref.succ r u)
         && G.in_degree g u = List.length (Ref.pred r u))
       (Ref.nodes r)

(* Random multigraphs on 0 .. 12 nodes (n = 0 included), up to 40 edges
   with parallel edges, self-loops and isolated nodes, plus a few
   search sources and a node mask for [map_nodes]. *)
let multigraph_arb =
  let open QCheck in
  let gen =
    Gen.(
      int_range 0 12 >>= fun n ->
      if n = 0 then return ({ Ref.n = 0; edges = [] }, [], 0)
      else
        let node = int_range 0 (n - 1) in
        triple (list_size (int_range 0 40) (pair node node)) (list_size (int_range 1 3) node)
          (int_bound ((1 lsl n) - 1))
        >|= fun (edges, sources, mask) -> ({ Ref.n; edges }, sources, mask))
  in
  let print (r, sources, mask) =
    Printf.sprintf "n = %d, edges = [%s], sources = [%s], mask = %x" r.Ref.n
      (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) r.Ref.edges))
      (String.concat "; " (List.map string_of_int sources))
      mask
  in
  make ~print gen

let csr_matches_model =
  qtest ~count:500 "CSR graph matches the edge-list model" multigraph_arb (fun (r, _, mask) ->
      let g = of_ref r in
      let keep v = (mask lsr v) land 1 = 1 in
      let sub, old_of_new, new_of_old = G.map_nodes g ~keep in
      let rsub, rold_of_new, rnew_of_old = Ref.map_nodes r ~keep in
      same_graph g r
      && same_graph (G.transpose g) (Ref.transpose r)
      && same_graph sub rsub && old_of_new = rold_of_new && new_of_old = rnew_of_old)

let traversals_match_model =
  qtest ~count:500 "traversals match the edge-list model" multigraph_arb
    (fun (r, sources, _) ->
      let g = of_ref r in
      let visits direction =
        let l = ref [] in
        Tr.bfs_layers g ~sources ~direction
          ~visit:(fun ~node ~dist ~parent -> l := (node, dist, parent) :: !l)
          ();
        List.rev !l
      in
      let labelled = List.mapi (fun i s -> (s, i)) sources in
      visits `Fwd = Ref.bfs r ~sources ~next:(Ref.succ r)
      && visits `Bwd = Ref.bfs r ~sources ~next:(Ref.pred r)
      && Tr.reachable_set g ~sources = Array.map (fun d -> d >= 0) (Ref.distances r ~sources)
      && Tr.multi_source_nearest g ~sources:labelled = Ref.nearest r ~sources:labelled
      && Tr.topological_order g = Ref.topological_order r)

let test_of_edges_rejects () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "lengths differ" (fun () -> G.of_edges 2 ~src:[| 0 |] ~dst:[||]);
  raises "node too large" (fun () -> G.of_edges 2 ~src:[| 0 |] ~dst:[| 2 |]);
  raises "negative node" (fun () -> G.of_edges 2 ~src:[| -1 |] ~dst:[| 0 |])

let suite =
  [ ( "graphlib.digraph",
      [ Alcotest.test_case "basic" `Quick test_digraph_basic;
        Alcotest.test_case "parallel edges" `Quick test_digraph_parallel_edges;
        Alcotest.test_case "transpose" `Quick test_transpose;
        Alcotest.test_case "map_nodes" `Quick test_map_nodes;
        Alcotest.test_case "of_edges rejects bad edges" `Quick test_of_edges_rejects;
        csr_matches_model ] );
    ( "graphlib.traversal",
      [ Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
        Alcotest.test_case "multi-source distances" `Quick test_bfs_multi_source;
        Alcotest.test_case "expand gate" `Quick test_bfs_expand_gate;
        Alcotest.test_case "backward" `Quick test_bfs_backward;
        Alcotest.test_case "multi-source nearest" `Quick test_multi_source_nearest;
        Alcotest.test_case "nearest is undirected" `Quick test_multi_source_nearest_undirected;
        Alcotest.test_case "topological" `Quick test_topological;
        Alcotest.test_case "reachable" `Quick test_reachable;
        topo_respects_edges; bfs_dist_shortest; traversals_match_model ] ) ]
