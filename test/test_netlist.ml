(* Tests for the netlist data model, its validation by Guard.Validate
   and elaboration. *)

module D = Netlist.Design
module Flat = Netlist.Flat
module G = Graphlib.Digraph

(* A small reference design used across the tests:

   top: input a, output z
     u0 : leafm (in -> a, out -> w)
     u1 : leafm (in -> w, out -> x)
     g  : comb (x -> z)

   leafm: input in, output out
     mem : macro 10x4 (in -> q)
     r_0 : flop (q -> p)
     c   : comb (p -> out)                                            *)
let leafm =
  D.module_def ~name:"leafm"
    ~ports:[ D.port ~name:"in" ~dir:D.Input; D.port ~name:"out" ~dir:D.Output ]
    ~cells:
      [ D.cell ~name:"mem" ~kind:(D.make_macro ~w:10.0 ~h:4.0) ~ins:[ "in" ] ~outs:[ "q" ] ();
        D.cell ~name:"r_0" ~kind:D.Flop ~ins:[ "q" ] ~outs:[ "p" ] ();
        D.cell ~name:"c" ~kind:D.Comb ~ins:[ "p" ] ~outs:[ "out" ] () ]
    ()

let top =
  D.module_def ~name:"top"
    ~ports:[ D.port ~name:"a" ~dir:D.Input; D.port ~name:"z" ~dir:D.Output ]
    ~cells:[ D.cell ~name:"g" ~kind:D.Comb ~ins:[ "x" ] ~outs:[ "z" ] () ]
    ~insts:
      [ D.inst ~name:"u0" ~module_:"leafm" ~bindings:[ ("in", "a"); ("out", "w") ];
        D.inst ~name:"u1" ~module_:"leafm" ~bindings:[ ("in", "w"); ("out", "x") ] ]
    ()

let ref_design = D.design ~top:"top" ~modules:[ top; leafm ]

(* ---- model -------------------------------------------------------- *)

let test_cell_defaults () =
  let m = D.cell ~name:"m" ~kind:(D.make_macro ~w:5.0 ~h:4.0) ~ins:[] ~outs:[] () in
  Alcotest.(check (float 1e-9)) "macro area defaults to footprint" 20.0 (D.cell_area m);
  let f = D.cell ~name:"f" ~kind:D.Flop ~ins:[] ~outs:[] () in
  Alcotest.(check (float 1e-9)) "flop default area" 1.0 (D.cell_area f);
  let c = D.cell ~name:"c" ~kind:D.Comb ~area:2.5 ~ins:[] ~outs:[] () in
  Alcotest.(check (float 1e-9)) "explicit area" 2.5 (D.cell_area c)

let test_kind_name () =
  Alcotest.(check string) "macro" "macro" (D.kind_name (D.make_macro ~w:1.0 ~h:1.0));
  Alcotest.(check string) "flop" "flop" (D.kind_name D.Flop);
  Alcotest.(check string) "comb" "comb" (D.kind_name D.Comb)

let test_find_module () =
  Alcotest.(check bool) "finds leafm" true (D.module_lookup ref_design "leafm" <> None);
  Alcotest.(check bool) "missing" true (D.module_lookup ref_design "nope" = None);
  let other = D.module_def ~name:"leafm" () in
  let twice = D.design ~top:"leafm" ~modules:[ leafm; other ] in
  Alcotest.(check bool) "first definition wins" true
    (Option.get (D.module_lookup twice "leafm") == leafm);
  Alcotest.(check int) "module count" 2 (D.module_count ref_design)

(* ---- validation ------------------------------------------------- *)

(* The structural checks are [Guard.Validate.design]'s: [design] must
   draw the diagnostic [code], and be rejected outright exactly when
   [rejected] (otherwise the code is a repair). *)
let expect_code design code ~rejected name =
  let diags, was_rejected =
    match Guard.Validate.design design with
    | Ok r -> (r.Guard.Validate.diags, false)
    | Error diags -> (diags, true)
  in
  Alcotest.(check bool) (name ^ ": rejected") rejected was_rejected;
  Alcotest.(check bool) (name ^ ": " ^ code) true
    (List.exists (fun (g : Guard.Diag.t) -> g.Guard.Diag.code = code) diags)

(* Accepted as it is: no diagnostic, no repair, the very same design. *)
let check_accepted_as_is name d =
  match Guard.Validate.design d with
  | Error _ -> Alcotest.failf "%s: rejected" name
  | Ok r ->
    Alcotest.(check int) (name ^ ": diagnostics") 0 (List.length r.Guard.Validate.diags);
    Alcotest.(check int) (name ^ ": repairs") 0 r.Guard.Validate.repairs;
    Alcotest.(check bool) (name ^ ": same design") true (r.Guard.Validate.design == d)

let test_validate_ok () = check_accepted_as_is "ref design" ref_design

let test_validate_missing_top () =
  let d = D.design ~top:"ghost" ~modules:[ leafm ] in
  expect_code d "missing-module" ~rejected:true "missing top"

(* bad instantiates ghost, which is not defined *)
let missing_child_design =
  let bad = D.module_def ~name:"bad" ~insts:[ D.inst ~name:"u" ~module_:"ghost" ~bindings:[] ] () in
  D.design ~top:"bad" ~modules:[ bad ]

let test_validate_missing_child () =
  expect_code missing_child_design "missing-module" ~rejected:true "missing child"

let test_validate_duplicate_module () =
  let d = D.design ~top:"leafm" ~modules:[ leafm; leafm ] in
  expect_code d "dup-module" ~rejected:false "duplicate module"

let test_validate_unknown_port () =
  let bad =
    D.module_def ~name:"bad"
      ~insts:[ D.inst ~name:"u" ~module_:"leafm" ~bindings:[ ("nope", "n") ] ]
      ()
  in
  let d = D.design ~top:"bad" ~modules:[ bad; leafm ] in
  expect_code d "dangling-binding" ~rejected:false "unknown port"

let test_validate_duplicate_cell () =
  let bad =
    D.module_def ~name:"bad"
      ~cells:
        [ D.cell ~name:"x" ~kind:D.Comb ~ins:[] ~outs:[] ();
          D.cell ~name:"x" ~kind:D.Flop ~ins:[] ~outs:[] () ]
      ()
  in
  let d = D.design ~top:"bad" ~modules:[ bad ] in
  expect_code d "dup-cell" ~rejected:false "duplicate cell"

(* a instantiates b, which instantiates a *)
let recursive_design =
  let a =
    D.module_def ~name:"a" ~insts:[ D.inst ~name:"u" ~module_:"b" ~bindings:[] ] ()
  in
  let b =
    D.module_def ~name:"b" ~insts:[ D.inst ~name:"v" ~module_:"a" ~bindings:[] ] ()
  in
  D.design ~top:"a" ~modules:[ a; b ]

let test_validate_recursion () =
  expect_code recursive_design "recursive-module" ~rejected:true "recursion"

(* Two instances named u0: the later one is dropped, so the repaired
   design holds one u0/mem macro, not two. *)
let test_validate_duplicate_instance () =
  let top =
    D.module_def ~name:"top"
      ~insts:
        [ D.inst ~name:"u0" ~module_:"leafm" ~bindings:[ ("in", "a") ];
          D.inst ~name:"u0" ~module_:"leafm" ~bindings:[ ("in", "b") ] ]
      ()
  in
  let d = D.design ~top:"top" ~modules:[ top; leafm ] in
  expect_code d "dup-instance" ~rejected:false "duplicate instance";
  (match Guard.Validate.design ~strict:true d with
  | Ok _ -> Alcotest.fail "strict must reject a duplicate instance"
  | Error _ -> ());
  match Guard.Validate.design d with
  | Error _ -> Alcotest.fail "duplicate instance should be repairable"
  | Ok r ->
    let f = Flat.elaborate r.Guard.Validate.design in
    Alcotest.(check (list string)) "one macro" [ "u0/mem" ]
      (List.map (fun (n : Flat.node) -> n.Flat.path) (Flat.macros f))

(* ---- elaboration -------------------------------------------------- *)

let flat = lazy (Flat.elaborate ref_design)

let test_elab_counts () =
  let f = Lazy.force flat in
  (* 2 instances x 3 cells + 1 top comb + 2 ports *)
  Alcotest.(check int) "node count" 9 (Array.length f.Flat.nodes);
  Alcotest.(check int) "macro count" 2 (Flat.macro_count f);
  Alcotest.(check int) "cell count" 7 (Flat.cell_count f);
  Alcotest.(check int) "scopes: top + 2 instances" 3 (Array.length f.Flat.scopes);
  Alcotest.(check (float 1e-9)) "total area: 2*(40+1+1)+1" 85.0 (Flat.total_cell_area f)

let test_elab_paths () =
  let f = Lazy.force flat in
  let paths =
    Array.to_list f.Flat.nodes |> List.map (fun (n : Flat.node) -> n.Flat.path)
  in
  Alcotest.(check bool) "macro path" true (List.mem "u0/mem" paths);
  Alcotest.(check bool) "flop path" true (List.mem "u1/r_0" paths);
  Alcotest.(check bool) "top cell path" true (List.mem "g" paths);
  Alcotest.(check bool) "port path" true (List.mem "a" paths)

let node_by_path f path =
  match
    Array.to_list f.Flat.nodes |> List.find_opt (fun (n : Flat.node) -> n.Flat.path = path)
  with
  | Some n -> n
  | None -> Alcotest.failf "node %s not found" path

let test_elab_connectivity () =
  let f = Lazy.force flat in
  let id path = (node_by_path f path).Flat.id in
  (* port a drives u0/mem *)
  Alcotest.(check bool) "a -> u0/mem" true (List.mem (id "u0/mem") (G.succ f.Flat.gnet (id "a")));
  (* u0 chain: mem -> r_0 -> c *)
  Alcotest.(check (list int)) "mem -> r_0" [ id "u0/r_0" ] (G.succ f.Flat.gnet (id "u0/mem"));
  Alcotest.(check (list int)) "r_0 -> c" [ id "u0/c" ] (G.succ f.Flat.gnet (id "u0/r_0"));
  (* cross-instance net w: u0/c -> u1/mem *)
  Alcotest.(check (list int)) "u0/c -> u1/mem" [ id "u1/mem" ] (G.succ f.Flat.gnet (id "u0/c"));
  (* top: u1/c -> g -> z *)
  Alcotest.(check (list int)) "u1/c -> g" [ id "g" ] (G.succ f.Flat.gnet (id "u1/c"));
  Alcotest.(check (list int)) "g -> z" [ id "z" ] (G.succ f.Flat.gnet (id "g"))

let test_elab_scopes () =
  let f = Lazy.force flat in
  let m = node_by_path f "u0/mem" in
  let scope = Flat.scope_of_node f m.Flat.id in
  Alcotest.(check string) "scope path" "u0" scope.Flat.spath;
  Alcotest.(check string) "scope module" "leafm" scope.Flat.smodule;
  Alcotest.(check int) "scope parent is top" 0 scope.Flat.sparent;
  let topscope = f.Flat.scopes.(0) in
  Alcotest.(check int) "top has two children" 2 (List.length topscope.Flat.schildren)

let test_elab_same_module_distinct_scopes () =
  let f = Lazy.force flat in
  let a = node_by_path f "u0/mem" and b = node_by_path f "u1/mem" in
  Alcotest.(check bool) "distinct scopes" false (a.Flat.scope = b.Flat.scope);
  Alcotest.(check bool) "distinct ids" false (a.Flat.id = b.Flat.id)

let test_elab_kinds () =
  let f = Lazy.force flat in
  let n = node_by_path f "u0/mem" in
  Alcotest.(check bool) "is macro" true (Flat.is_macro n);
  Alcotest.(check bool) "macro not flop" false (Flat.is_flop n);
  let p = node_by_path f "a" in
  Alcotest.(check bool) "is port" true (Flat.is_port p);
  Alcotest.(check int) "ports listed" 2 (List.length (Flat.ports f));
  Alcotest.(check int) "macros listed" 2 (List.length (Flat.macros f))

(* Elaboration finds what it cannot proceed past in its own DFS: a
   missing module and a recursive one raise [Invalid_argument] (no
   assertion failure, no stack overflow). *)
let expect_invalid_argument name d =
  match Flat.elaborate d with
  | exception Invalid_argument _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_elab_invalid_raises () =
  expect_invalid_argument "missing top" (D.design ~top:"ghost" ~modules:[]);
  expect_invalid_argument "missing child" missing_child_design;
  expect_invalid_argument "recursion" recursive_design;
  let self =
    D.module_def ~name:"self" ~insts:[ D.inst ~name:"u" ~module_:"self" ~bindings:[] ] ()
  in
  expect_invalid_argument "self instantiation" (D.design ~top:"self" ~modules:[ self ])

let test_elab_net_pins () =
  let f = Lazy.force flat in
  (* every net has drivers+sinks consistent with gnet edge count *)
  let edges =
    Array.fold_left
      (fun acc (ds, ss) -> acc + (Array.length ds * Array.length ss))
      0 f.Flat.net_pins
  in
  Alcotest.(check int) "pin products = edges" (G.edge_count f.Flat.gnet) edges;
  (* the pin index lists the nets with two or more pins, in order *)
  let idx = f.Flat.pin_index in
  let listed =
    Array.to_list f.Flat.net_pins
    |> List.filter (fun (ds, ss) -> Array.length ds + Array.length ss >= 2)
  in
  Alcotest.(check int) "listed nets" (List.length listed) (Array.length idx.Flat.off - 1);
  List.iteri
    (fun k (ds, ss) ->
      let o = idx.Flat.off.(k) and fs = idx.Flat.first_sink.(k) in
      Alcotest.(check (array int)) "drivers" ds (Array.sub idx.Flat.ids o (fs - o));
      Alcotest.(check (array int)) "sinks" ss
        (Array.sub idx.Flat.ids fs (idx.Flat.off.(k + 1) - fs)))
    listed

(* The generator's guarantee: the validator accepts every suite design
   as it is. *)
let test_generated_designs_validate () =
  List.iter
    (fun (c : Circuitgen.Suite.circuit) ->
      check_accepted_as_is c.Circuitgen.Suite.cname
        (Circuitgen.Gen.generate c.Circuitgen.Suite.params))
    (Circuitgen.Suite.c_suite ());
  check_accepted_as_is "fig1" (Circuitgen.Suite.fig1_design ());
  check_accepted_as_is "fig2" (Circuitgen.Suite.fig2_system ())

(* MD5 of the elaboration of c1 and c5 as the benchmark's seed 1 sees
   them (generator seed moved by 1000, handed over as HNL text): every
   node's path, kind, area (%h) and scope, every net's drivers and sinks
   in order, and every node's Gnet successors in order. Pinned before
   the builder's per-net tables moved from hash tables to arrays, so
   node, net and edge order must stay bit for bit. *)
let elaboration_digests =
  [ ("c1", "90eca39456fc8b77985ffd52561d0677"); ("c5", "f3708c1437d6fe2be3df74990675f72e") ]

let flat_digest (f : Flat.t) =
  let b = Buffer.create (1 lsl 20) in
  let ints a = Array.iter (fun i -> Printf.bprintf b " %d" i) a in
  Array.iter
    (fun (n : Flat.node) ->
      let kind =
        match n.Flat.kind with
        | Flat.Kmacro { D.mw; mh } -> Printf.sprintf "macro %h %h" mw mh
        | Flat.Kflop -> "flop"
        | Flat.Kcomb -> "comb"
        | Flat.Kport D.Input -> "input"
        | Flat.Kport D.Output -> "output"
      in
      Printf.bprintf b "n %s %s %h %d\n" n.Flat.path kind n.Flat.area n.Flat.scope)
    f.Flat.nodes;
  Array.iter
    (fun (ds, ss) ->
      Buffer.add_string b "d";
      ints ds;
      Buffer.add_string b " s";
      ints ss;
      Buffer.add_char b '\n')
    f.Flat.net_pins;
  for u = 0 to G.node_count f.Flat.gnet - 1 do
    Buffer.add_string b "e";
    G.succ_iter f.Flat.gnet u (fun v -> Printf.bprintf b " %d" v);
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The same for the other suite circuits, pinned before Gnet moved to
   compressed sparse rows and the builder to one flat pin table. *)
let more_elaboration_digests =
  [ ("c2", "09bd07b70809a9dc9583daf8a6130830"); ("c3", "e225a47c1c066c355c74854b44e6a694");
    ("c4", "8ded8ed4c9d966be0fa02a1d731cfff5"); ("c6", "03ff551dded19b773067a078eff08577");
    ("c7", "796557b7379f07bf4b4dddeed7f33260"); ("c8", "eea11746e405bbe375166ab20a3581c1") ]

let check_elaboration_digests digests () =
  List.iter
    (fun (name, digest) ->
      let c = Option.get (Circuitgen.Suite.find name) in
      let params =
        { c.Circuitgen.Suite.params with seed = c.Circuitgen.Suite.params.seed + 1000 }
      in
      let text = Hnl.Printer.to_string (Circuitgen.Gen.generate params) in
      let f = Flat.elaborate (Hnl.Parser.parse_exn text) in
      Alcotest.(check string) (name ^ " elaboration digest") digest (flat_digest f))
    digests

let suite =
  [ ( "netlist.design",
      [ Alcotest.test_case "cell defaults" `Quick test_cell_defaults;
        Alcotest.test_case "kind names" `Quick test_kind_name;
        Alcotest.test_case "find module" `Quick test_find_module ] );
    ( "netlist.validate",
      [ Alcotest.test_case "ok design" `Quick test_validate_ok;
        Alcotest.test_case "missing top" `Quick test_validate_missing_top;
        Alcotest.test_case "missing child" `Quick test_validate_missing_child;
        Alcotest.test_case "duplicate module" `Quick test_validate_duplicate_module;
        Alcotest.test_case "unknown port" `Quick test_validate_unknown_port;
        Alcotest.test_case "duplicate cell" `Quick test_validate_duplicate_cell;
        Alcotest.test_case "recursion" `Quick test_validate_recursion;
        Alcotest.test_case "duplicate instance" `Quick test_validate_duplicate_instance ] );
    ( "netlist.flat",
      [ Alcotest.test_case "counts" `Quick test_elab_counts;
        Alcotest.test_case "paths" `Quick test_elab_paths;
        Alcotest.test_case "connectivity" `Quick test_elab_connectivity;
        Alcotest.test_case "scopes" `Quick test_elab_scopes;
        Alcotest.test_case "instances get distinct scopes" `Quick
          test_elab_same_module_distinct_scopes;
        Alcotest.test_case "kinds" `Quick test_elab_kinds;
        Alcotest.test_case "invalid design raises" `Quick test_elab_invalid_raises;
        Alcotest.test_case "net pins consistent" `Quick test_elab_net_pins;
        Alcotest.test_case "golden c1/c5 elaboration digest" `Quick
          (check_elaboration_digests elaboration_digests);
        Alcotest.test_case "golden c2-c4, c6-c8 elaboration digest" `Quick
          (check_elaboration_digests more_elaboration_digests);
        Alcotest.test_case "generated designs validate" `Slow
          test_generated_designs_validate ] ) ]
