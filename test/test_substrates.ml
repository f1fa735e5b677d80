(* Tests for the evaluation substrates: cell placement, congestion and
   static timing. *)

module Flat = Netlist.Flat
module Rect = Geom.Rect
module Point = Geom.Point

let check_float = Alcotest.(check (float 1e-6))

let fig1_flat = lazy (Flat.elaborate (Circuitgen.Suite.fig1_design ()))

let setup =
  lazy
    (let flat = Lazy.force fig1_flat in
     let gseq = Seqgraph.build flat in
     let config = Hidap.Config.default in
     let die = Hidap.die_for flat ~config in
     let ports = Hidap.Port_plan.make gseq ~die in
     let r = Hidap.place ~config ~die flat in
     (flat, gseq, die, ports, r.Hidap.placements))

let run_cellplace () =
  let flat, _, die, ports, macros = Lazy.force setup in
  ( flat, die, macros,
    Cellplace.run ~flat ~macros
      ~port_pos:(fun fid -> Hidap.Port_plan.flat_pos ports fid)
      ~die () )

(* ---- cellplace ----------------------------------------------------- *)

let test_cellplace_positions_in_die () =
  let flat, die, _, cp = run_cellplace () in
  Array.iter
    (fun (n : Flat.node) ->
      let p = cp.Cellplace.positions.(n.Flat.id) in
      Alcotest.(check bool) "inside die" true
        (p.Point.x >= die.Rect.x -. 1e-6
        && p.Point.x <= die.Rect.x +. die.Rect.w +. 1e-6
        && p.Point.y >= die.Rect.y -. 1e-6
        && p.Point.y <= die.Rect.y +. die.Rect.h +. 1e-6))
    flat.Flat.nodes

let test_cellplace_anchors () =
  let flat, _, macros, cp = run_cellplace () in
  (* macros stay at their placed centres *)
  List.iter
    (fun (m : Cellplace.macro_place) ->
      Alcotest.(check bool) "macro anchored" true
        (Point.equal cp.Cellplace.positions.(m.Cellplace.fid) (Rect.center m.Cellplace.rect)))
    macros;
  (* movable flags *)
  Array.iter
    (fun (n : Flat.node) ->
      let movable = cp.Cellplace.movable.(n.Flat.id) in
      match n.Flat.kind with
      | Flat.Kmacro _ | Flat.Kport _ -> Alcotest.(check bool) "fixed" false movable
      | Flat.Kflop | Flat.Kcomb -> Alcotest.(check bool) "movable" true movable)
    flat.Flat.nodes

let test_cellplace_locality () =
  (* a flop feeding a macro should land near that macro, not across the
     die *)
  let flat, die, macros, cp = run_cellplace () in
  let macro_rect = Hashtbl.create 16 in
  List.iter (fun (m : Cellplace.macro_place) -> Hashtbl.replace macro_rect m.Cellplace.fid m.Cellplace.rect) macros;
  let checked = ref 0 in
  Array.iter
    (fun (n : Flat.node) ->
      if Flat.is_flop n && !checked < 50 then
        Graphlib.Digraph.succ_iter flat.Flat.gnet n.Flat.id (fun v ->
            match Hashtbl.find_opt macro_rect v with
            | Some r ->
              incr checked;
              let d = Point.manhattan cp.Cellplace.positions.(n.Flat.id) (Rect.center r) in
              Alcotest.(check bool) "flop near its macro" true
                (d < 0.6 *. (die.Rect.w +. die.Rect.h))
            | None -> ()))
    flat.Flat.nodes;
  Alcotest.(check bool) "some pairs checked" true (!checked > 0)

let test_cellplace_deterministic () =
  let _, _, _, cp1 = run_cellplace () in
  let _, _, _, cp2 = run_cellplace () in
  Alcotest.(check bool) "identical positions" true
    (cp1.Cellplace.positions = cp2.Cellplace.positions)

let test_density_map () =
  let flat, _, macros, cp = run_cellplace () in
  let grid = Cellplace.density_map cp ~flat ~macros ~bins:16 in
  Alcotest.(check int) "grid x" 16 (Array.length grid);
  Alcotest.(check int) "grid y" 16 (Array.length grid.(0));
  let total = Array.fold_left (fun a col -> Array.fold_left ( +. ) a col) 0.0 grid in
  Alcotest.(check bool) "density mass positive" true (total > 0.0);
  Array.iter
    (Array.iter (fun d -> Alcotest.(check bool) "non-negative" true (d >= 0.0)))
    grid

(* ---- macro push-out -------------------------------------------------- *)

(* The reference push-out: every macro in list order, moving the point
   to the nearest edge of each one that contains it, then a clamp to the
   die. [Cellplace.push_out] must agree with it bit for bit. *)
let push_out_reference ~macro_rects ~die (p : Point.t) =
  let p =
    List.fold_left
      (fun (p : Point.t) (r : Rect.t) ->
        if Rect.contains_point r p then begin
          let dl = p.Point.x -. r.Rect.x in
          let dr = r.Rect.x +. r.Rect.w -. p.Point.x in
          let db = p.Point.y -. r.Rect.y in
          let dt = r.Rect.y +. r.Rect.h -. p.Point.y in
          let m = min (min dl dr) (min db dt) in
          if m = dl then Point.make (r.Rect.x -. 0.5) p.Point.y
          else if m = dr then Point.make (r.Rect.x +. r.Rect.w +. 0.5) p.Point.y
          else if m = db then Point.make p.Point.x (r.Rect.y -. 0.5)
          else Point.make p.Point.x (r.Rect.y +. r.Rect.h +. 0.5)
        end
        else p)
      p macro_rects
  in
  Point.make
    (Util.Stat.clamp ~lo:die.Rect.x ~hi:(die.Rect.x +. die.Rect.w) p.Point.x)
    (Util.Stat.clamp ~lo:die.Rect.y ~hi:(die.Rect.y +. die.Rect.h) p.Point.y)

let check_push_out name ~macro_rects ~die points =
  let got = Cellplace.push_out ~macro_rects ~die points in
  Array.iteri
    (fun i (p : Point.t) ->
      let want = push_out_reference ~macro_rects ~die p in
      let q = got.(i) in
      if Int64.bits_of_float q.Point.x <> Int64.bits_of_float want.Point.x
         || Int64.bits_of_float q.Point.y <> Int64.bits_of_float want.Point.y
      then
        Alcotest.failf "%s: point %d (%h, %h) pushed to (%h, %h), reference (%h, %h)" name i
          p.Point.x p.Point.y q.Point.x q.Point.y want.Point.x want.Point.y)
    points

let test_push_out_cases () =
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:100.0 ~h:100.0 in
  let r x y w h = Rect.make ~x ~y ~w ~h in
  let pts l = Array.of_list (List.map (fun (x, y) -> Point.make x y) l) in
  (* out of A across its right edge lands in B, listed later *)
  let a = r 10.0 10.0 20.0 20.0 and b = r 30.2 10.0 20.0 20.0 in
  Alcotest.(check (float 0.0)) "A then B" 29.7
    (Cellplace.push_out ~macro_rects:[ a; b ] ~die (pts [ (29.0, 20.0) ])).(0).Point.x;
  check_push_out "chain into a later macro" ~macro_rects:[ a; b ] ~die
    (pts [ (29.0, 20.0); (28.5, 12.0); (11.0, 29.5) ]);
  (* out of B across its left edge lands in A, listed earlier: A is not
     revisited *)
  Alcotest.(check (float 0.0)) "B, landing in A" 29.7
    (Cellplace.push_out ~macro_rects:[ a; b ] ~die (pts [ (30.5, 20.0) ])).(0).Point.x;
  check_push_out "no revisit of an earlier macro" ~macro_rects:[ a; b ] ~die
    (pts [ (30.5, 20.0); (30.6, 15.0) ]);
  check_push_out "reversed list" ~macro_rects:[ b; a ] ~die
    (pts [ (29.0, 20.0); (30.5, 20.0) ]);
  (* closed containment: points on edges and corners are pushed *)
  check_push_out "points on macro edges" ~macro_rects:[ a; b ] ~die
    (pts [ (10.0, 20.0); (30.0, 20.0); (20.0, 10.0); (20.0, 30.0); (10.0, 10.0);
           (30.0, 30.0); (30.2, 30.0); (50.2, 10.0) ]);
  (* outside the die, and macros on and past the die edge *)
  let edge = r (-5.0) 90.0 20.0 15.0 in
  check_push_out "points outside the die" ~macro_rects:[ a; edge; b ] ~die
    (pts [ (-40.0, 50.0); (140.0, -3.0); (-2.0, 95.0); (0.0, 100.0); (1e300, 1e300);
           (-1e300, 50.0); (infinity, 20.0); (nan, 20.0) ])

(* 200 macros put a 15 x 15 bin grid over the die, with lines every 60
   in x and every 50 in y; every fourth macro is snapped to those lines,
   so edges and corners fall exactly on bin boundaries. *)
let test_push_out_random () =
  let rng = Util.Rng.create 17 in
  let die = Rect.make ~x:(-37.5) ~y:12.25 ~w:900.0 ~h:750.0 in
  let macro_rects =
    List.init 200 (fun k ->
        if k mod 4 = 0 then
          Rect.make
            ~x:(die.Rect.x +. (60.0 *. float_of_int (Util.Rng.int rng 15)))
            ~y:(die.Rect.y +. (50.0 *. float_of_int (Util.Rng.int rng 15)))
            ~w:(60.0 *. float_of_int (Util.Rng.range rng 1 3))
            ~h:(50.0 *. float_of_int (Util.Rng.range rng 1 3))
        else
          let w = Util.Rng.float rng 120.0 and h = Util.Rng.float rng 90.0 in
          Rect.make
            ~x:(die.Rect.x -. 40.0 +. Util.Rng.float rng (die.Rect.w +. 40.0))
            ~y:(die.Rect.y -. 30.0 +. Util.Rng.float rng (die.Rect.h +. 30.0))
            ~w ~h)
    |> Array.of_list
  in
  let points =
    Array.init 6000 (fun i ->
        let r = macro_rects.(i / 6 mod 200) in
        match i mod 6 with
        (* on the macro's edges and corners *)
        | 0 -> Point.make (r.Rect.x +. r.Rect.w) r.Rect.y
        | 1 -> Point.make r.Rect.x (r.Rect.y +. r.Rect.h)
        | 2 -> Point.make (r.Rect.x +. r.Rect.w) (r.Rect.y +. (r.Rect.h /. 2.0))
        | _ ->
          Point.make
            (die.Rect.x -. 50.0 +. Util.Rng.float rng (die.Rect.w +. 100.0))
            (die.Rect.y -. 50.0 +. Util.Rng.float rng (die.Rect.h +. 100.0)))
  in
  check_push_out "200 random macros" ~macro_rects:(Array.to_list macro_rects) ~die points

(* ---- congestion ----------------------------------------------------- *)

let test_congestion_uniform_design () =
  (* a single long net in a big die: tiny overflow *)
  let d =
    Netlist.Design.design ~top:"t"
      ~modules:
        [ Netlist.Design.module_def ~name:"t"
            ~cells:
              [ Netlist.Design.cell ~name:"a" ~kind:Netlist.Design.Comb ~ins:[] ~outs:[ "n" ] ();
                Netlist.Design.cell ~name:"b" ~kind:Netlist.Design.Comb ~ins:[ "n" ] ~outs:[] () ]
            () ]
  in
  let flat = Flat.elaborate d in
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:100.0 ~h:100.0 in
  let positions = Array.make 2 (Point.make 10.0 10.0) in
  positions.(1) <- Point.make 90.0 90.0;
  let r = Congestion.estimate ~flat ~positions ~die () in
  Alcotest.(check (float 1e-9)) "single net does not overflow" 0.0
    r.Congestion.overflow_pct

let test_congestion_hotspot () =
  (* many medium nets stacked in one corner must overflow *)
  let n = 400 in
  let cells =
    List.concat
      (List.init n (fun i ->
           [ Netlist.Design.cell ~name:(Printf.sprintf "a%d" i) ~kind:Netlist.Design.Comb
               ~ins:[] ~outs:[ Printf.sprintf "n%d" i ] ();
             Netlist.Design.cell ~name:(Printf.sprintf "b%d" i) ~kind:Netlist.Design.Comb
               ~ins:[ Printf.sprintf "n%d" i ] ~outs:[] () ]))
  in
  let d =
    Netlist.Design.design ~top:"t"
      ~modules:[ Netlist.Design.module_def ~name:"t" ~cells () ]
  in
  let flat = Flat.elaborate d in
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:100.0 ~h:100.0 in
  let positions =
    Array.init (2 * n) (fun i -> if i mod 2 = 0 then Point.make 1.0 1.0 else Point.make 9.0 9.0)
  in
  let r = Congestion.estimate ~flat ~positions ~die () in
  Alcotest.(check bool) "hotspot overflows" true (r.Congestion.overflow_pct > 0.0);
  Alcotest.(check bool) "few bins overflow" true (r.Congestion.overflowed_bins_pct < 20.0)

let test_congestion_macro_blockage () =
  let flat, die, macros, cp = run_cellplace () in
  let rects = List.map (fun (m : Cellplace.macro_place) -> m.Cellplace.rect) macros in
  let without =
    Congestion.estimate ~flat ~positions:cp.Cellplace.positions ~die ()
  in
  let with_blockage =
    Congestion.estimate ~flat ~positions:cp.Cellplace.positions ~die ~macros:rects ()
  in
  Alcotest.(check bool) "blockage can only hurt" true
    (with_blockage.Congestion.overflow_pct >= without.Congestion.overflow_pct -. 1e-9)

(* ---- sta ------------------------------------------------------------ *)

let test_sta_no_edges () =
  let d =
    Netlist.Design.design ~top:"t"
      ~modules:[ Netlist.Design.module_def ~name:"t" () ]
  in
  let gseq = Seqgraph.build (Flat.elaborate d) in
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let r = Sta.analyze ~gseq ~node_pos:(fun _ -> Point.origin) ~die () in
  check_float "wns 0" 0.0 r.Sta.wns_pct;
  check_float "tns 0" 0.0 r.Sta.tns;
  Alcotest.(check int) "no failing endpoints" 0 r.Sta.failing_endpoints

let sta_chain_design () =
  (* two registers a -> b (8 bits) *)
  let w = 8 in
  let cells =
    List.concat
      (List.init w (fun i ->
           [ Netlist.Design.cell ~name:(Printf.sprintf "a_%d" i) ~kind:Netlist.Design.Flop
               ~ins:[] ~outs:[ Printf.sprintf "n_%d" i ] ();
             Netlist.Design.cell ~name:(Printf.sprintf "b_%d" i) ~kind:Netlist.Design.Flop
               ~ins:[ Printf.sprintf "n_%d" i ] ~outs:[] () ]))
  in
  Seqgraph.build
    (Flat.elaborate
       (Netlist.Design.design ~top:"t"
          ~modules:[ Netlist.Design.module_def ~name:"t" ~cells () ]))

let test_sta_distance_slack () =
  let gseq = sta_chain_design () in
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:1000.0 ~h:1000.0 in
  let far gid = if gid = 0 then Point.make 0.0 0.0 else Point.make 1000.0 1000.0 in
  let near _ = Point.make 0.0 0.0 in
  let r_far = Sta.analyze ~gseq ~node_pos:far ~die () in
  let r_near = Sta.analyze ~gseq ~node_pos:near ~die () in
  check_float "same clock either way" r_far.Sta.clock_period r_near.Sta.clock_period;
  Alcotest.(check bool) "near meets timing" true (r_near.Sta.wns_pct >= -1e-9);
  Alcotest.(check bool) "far violates" true (r_far.Sta.wns_pct < 0.0);
  Alcotest.(check bool) "tns <= wns" true (r_far.Sta.tns <= r_far.Sta.wns);
  Alcotest.(check bool) "worst edge reported" true (r_far.Sta.worst_edge <> None);
  Alcotest.(check int) "one failing endpoint" 1 r_far.Sta.failing_endpoints

let test_sta_latency_relaxes () =
  (* the same physical distance hurts less when pipelined over more
     cycles: build a bridged 2-cycle edge via the bit threshold *)
  let w = 8 in
  let cells =
    List.concat
      (List.init w (fun i ->
           [ Netlist.Design.cell ~name:(Printf.sprintf "a_%d" i) ~kind:Netlist.Design.Flop
               ~ins:[] ~outs:[ Printf.sprintf "n_%d" i ] ();
             Netlist.Design.cell ~name:(Printf.sprintf "b_%d" i) ~kind:Netlist.Design.Flop
               ~ins:[ "mq" ] ~outs:[] () ]))
    @ [ Netlist.Design.cell ~name:"mid" ~kind:Netlist.Design.Flop ~ins:[ "n_0" ]
          ~outs:[ "mq" ] () ]
  in
  let flat =
    Flat.elaborate
      (Netlist.Design.design ~top:"t"
         ~modules:[ Netlist.Design.module_def ~name:"t" ~cells () ])
  in
  let pipelined = Seqgraph.build ~bit_threshold:2 flat in
  (* a->b should now have latency 2 *)
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:1000.0 ~h:1000.0 in
  let far gid =
    let nd = pipelined.Seqgraph.nodes.(gid) in
    if nd.Seqgraph.name = "a" then Point.make 0.0 0.0 else Point.make 1000.0 1000.0
  in
  let r2 = Sta.analyze ~gseq:pipelined ~node_pos:far ~die () in
  let r1 = Sta.analyze ~gseq:(sta_chain_design ()) ~node_pos:far ~die () in
  Alcotest.(check bool) "two cycles relax the same distance" true
    (r2.Sta.wns > r1.Sta.wns)

let suite =
  [ ( "cellplace",
      [ Alcotest.test_case "positions in die" `Quick test_cellplace_positions_in_die;
        Alcotest.test_case "anchors" `Quick test_cellplace_anchors;
        Alcotest.test_case "locality" `Quick test_cellplace_locality;
        Alcotest.test_case "deterministic" `Quick test_cellplace_deterministic;
        Alcotest.test_case "density map" `Quick test_density_map;
        Alcotest.test_case "push-out matches the list scan" `Quick test_push_out_cases;
        Alcotest.test_case "push-out matches the list scan, 200 macros" `Quick
          test_push_out_random ] );
    ( "congestion",
      [ Alcotest.test_case "single net" `Quick test_congestion_uniform_design;
        Alcotest.test_case "hotspot" `Quick test_congestion_hotspot;
        Alcotest.test_case "macro blockage" `Quick test_congestion_macro_blockage ] );
    ( "sta",
      [ Alcotest.test_case "no edges" `Quick test_sta_no_edges;
        Alcotest.test_case "distance slack" `Quick test_sta_distance_slack;
        Alcotest.test_case "latency relaxes" `Quick test_sta_latency_relaxes ] ) ]
