(* Robustness layer: validator, fault injection, budgets, supervisor,
   audit, and the end-to-end guarantee that every registered fault site
   still yields an audit-clean placement. *)

module D = Netlist.Design
module Flat = Netlist.Flat
module Rect = Geom.Rect

let check_float = Alcotest.(check (float 1e-9))

(* ---- validator ---------------------------------------------------- *)

let base_module ?(cells = []) ?(insts = []) name =
  D.module_def ~name
    ~ports:[ D.port ~name:"i" ~dir:D.Input; D.port ~name:"o" ~dir:D.Output ]
    ~cells ~insts ()

let test_validate_clean () =
  let d = Circuitgen.Suite.fig1_design () in
  match Guard.Validate.design d with
  | Ok r ->
    Alcotest.(check int) "no repairs" 0 r.Guard.Validate.repairs;
    Alcotest.(check bool) "same design" true (r.Guard.Validate.design == d)
  | Error _ -> Alcotest.fail "fig1 design must validate"

let test_validate_dangling_binding () =
  let inner = base_module "inner" in
  let top =
    base_module "top"
      ~insts:[ D.inst ~name:"u0" ~module_:"inner"
                 ~bindings:[ ("i", "n1"); ("nosuch", "n2") ] ]
  in
  let d = D.design ~top:"top" ~modules:[ top; inner ] in
  match Guard.Validate.design d with
  | Error _ -> Alcotest.fail "dangling binding should be repairable"
  | Ok r ->
    Alcotest.(check bool) "repaired" true (r.Guard.Validate.repairs > 0);
    Alcotest.(check bool) "diagnosed" true
      (List.exists (fun (g : Guard.Diag.t) -> g.Guard.Diag.code = "dangling-binding")
         r.Guard.Validate.diags);
    (* the repaired design must now pass structural validation *)
    (match D.validate r.Guard.Validate.design with
    | Ok () -> ()
    | Error e -> Alcotest.failf "repair left design invalid: %a" D.pp_error e)

let test_validate_strict_escalates () =
  let inner = base_module "inner" in
  let top =
    base_module "top"
      ~insts:[ D.inst ~name:"u0" ~module_:"inner" ~bindings:[ ("nosuch", "n") ] ]
  in
  let d = D.design ~top:"top" ~modules:[ top; inner ] in
  (match Guard.Validate.design d with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "non-strict run should repair");
  match Guard.Validate.design ~strict:true d with
  | Ok _ -> Alcotest.fail "strict must reject what repair would fix"
  | Error diags ->
    Alcotest.(check bool) "has errors" true (Guard.Validate.errors diags <> [])

let test_validate_missing_module () =
  let top =
    base_module "top"
      ~insts:[ D.inst ~name:"u0" ~module_:"ghost" ~bindings:[] ]
  in
  let d = D.design ~top:"top" ~modules:[ top ] in
  match Guard.Validate.design d with
  | Ok _ -> Alcotest.fail "missing module is not repairable"
  | Error diags ->
    Alcotest.(check bool) "missing-module error" true
      (List.exists
         (fun (g : Guard.Diag.t) ->
           g.Guard.Diag.code = "missing-module" && Guard.Diag.is_error g)
         diags)

let test_validate_bad_area () =
  let top =
    base_module "top"
      ~cells:[ { D.cname = "c0"; ckind = D.Comb; carea = Float.nan;
                 cins = [ "i" ]; couts = [ "o" ] } ]
  in
  let d = D.design ~top:"top" ~modules:[ top ] in
  match Guard.Validate.design d with
  | Error _ -> Alcotest.fail "bad area should be repaired"
  | Ok r ->
    Alcotest.(check bool) "bad-area diagnosed" true
      (List.exists (fun (g : Guard.Diag.t) -> g.Guard.Diag.code = "bad-area")
         r.Guard.Validate.diags);
    let m = Option.get (D.find_module r.Guard.Validate.design "top") in
    let c = List.hd m.D.cells in
    Alcotest.(check bool) "area now finite" true (Float.is_finite c.D.carea)

let test_validate_flat_macro_exceeds_die () =
  let flat = Flat.elaborate (Circuitgen.Suite.fig1_design ()) in
  let die = Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let diags = Guard.Validate.flat ~die flat in
  Alcotest.(check bool) "macro-exceeds-die warned" true
    (List.exists
       (fun (g : Guard.Diag.t) -> g.Guard.Diag.code = "macro-exceeds-die")
       diags);
  let strict = Guard.Validate.flat ~strict:true ~die flat in
  Alcotest.(check bool) "strict escalates" true
    (Guard.Validate.errors strict <> [])

(* ---- fault specs -------------------------------------------------- *)

let test_fault_parse () =
  (match Guard.Fault.parse "floorplan.sa" with
  | Ok [ { Guard.Fault.site = "floorplan.sa"; nth = 1; action = Guard.Fault.Raise } ] -> ()
  | _ -> Alcotest.fail "plain site");
  (match Guard.Fault.parse "flipping.run:3" with
  | Ok [ { Guard.Fault.nth = 3; _ } ] -> ()
  | _ -> Alcotest.fail "nth");
  (match Guard.Fault.parse "cellplace.run:stall=0.25" with
  | Ok [ { Guard.Fault.action = Guard.Fault.Stall 0.25; _ } ] -> ()
  | _ -> Alcotest.fail "stall");
  (match Guard.Fault.parse "nosuch.site" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown site must be rejected");
  (match Guard.Fault.parse "floorplan.sa:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad count must be rejected")

let test_fault_hit_counts () =
  Guard.Fault.arm [ { Guard.Fault.site = "floorplan.sa"; nth = 2; action = Guard.Fault.Raise } ];
  Fun.protect ~finally:Guard.Fault.disarm @@ fun () ->
  Guard.Fault.hit "floorplan.sa";  (* first hit skipped *)
  (match Guard.Fault.hit "floorplan.sa" with
  | () -> Alcotest.fail "second hit must raise"
  | exception Guard.Fault.Injected { site = "floorplan.sa"; hit = 2 } -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  (* other sites are unaffected *)
  Guard.Fault.hit "flipping.run"

let test_budget_parse_and_check () =
  (match Guard.Budget.parse "floorplan=1.5,cellplace=10" with
  | Ok [ ("floorplan", 1.5); ("cellplace", 10.0) ] -> ()
  | _ -> Alcotest.fail "budget parse");
  (match Guard.Budget.parse "floorplan=banana" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad seconds must be rejected");
  Guard.Budget.configure [ ("floorplan", 0.0) ];
  Fun.protect ~finally:Guard.Budget.clear @@ fun () ->
  Guard.Budget.check ~stage:"flipping";  (* unbudgeted stage: no-op *)
  Guard.Budget.check ~stage:"floorplan";  (* first poll starts the clock *)
  Unix.sleepf 0.002;  (* get past the microsecond the deadline was stamped in *)
  match Guard.Budget.check ~stage:"floorplan" with
  | () -> Alcotest.fail "zero budget must trip on the next poll"
  | exception Guard.Budget.Exceeded { stage = "floorplan"; _ } -> ()
  | exception _ -> Alcotest.fail "wrong exception"

(* ---- supervisor --------------------------------------------------- *)

let test_protect_outside_run_reraises () =
  match Guard.Supervisor.protect ~stage:"s" ~fallback:(fun _ -> 0)
          (fun () -> failwith "boom")
  with
  | _ -> Alcotest.fail "must re-raise outside with_run"
  | exception Failure _ -> ()

let test_protect_inside_run_degrades () =
  let v, entries =
    Guard.Supervisor.with_run (fun () ->
        Guard.Supervisor.protect ~stage:"s" ~fallback:(fun _ -> 42)
          (fun () -> failwith "boom"))
  in
  Alcotest.(check int) "fallback value" 42 v;
  match entries with
  | [ e ] ->
    Alcotest.(check string) "stage" "s" e.Guard.Supervisor.stage;
    Alcotest.(check string) "reason" "failure" e.Guard.Supervisor.reason;
    Alcotest.(check int) "count" 1 e.Guard.Supervisor.count
  | _ -> Alcotest.failf "expected one entry, got %d" (List.length entries)

let test_protect_never_absorbs_diag () =
  match
    Guard.Supervisor.with_run (fun () ->
        Guard.Supervisor.protect ~stage:"s" ~fallback:(fun _ -> 0)
          (fun () -> Guard.Diag.fail ~code:"x" ~stage:"s" "verdict"))
  with
  | _ -> Alcotest.fail "Diag.Fail must escape the supervisor"
  | exception Guard.Diag.Fail _ -> ()

let test_with_run_dedups_and_sorts () =
  let (), entries =
    Guard.Supervisor.with_run (fun () ->
        Alcotest.(check bool) "not yet degraded" false (Guard.Supervisor.degraded ());
        for _ = 1 to 3 do
          ignore
            (Guard.Supervisor.protect ~stage:"b" ~fallback:(fun _ -> ())
               (fun () -> failwith "boom"))
        done;
        ignore
          (Guard.Supervisor.protect ~stage:"a" ~fallback:(fun _ -> ())
             (fun () -> failwith "boom"));
        Alcotest.(check bool) "degraded now" true (Guard.Supervisor.degraded ()))
  in
  match entries with
  | [ a; b ] ->
    Alcotest.(check string) "sorted first" "a" a.Guard.Supervisor.stage;
    Alcotest.(check string) "sorted second" "b" b.Guard.Supervisor.stage;
    Alcotest.(check int) "deduplicated count" 3 b.Guard.Supervisor.count
  | _ -> Alcotest.failf "expected two entries, got %d" (List.length entries)

let test_degraded_false_outside_run () =
  Alcotest.(check bool) "inactive" false (Guard.Supervisor.degraded ())

(* ---- audit -------------------------------------------------------- *)

let fig1_flat = lazy (Flat.elaborate (Circuitgen.Suite.fig1_design ()))

let fig1_placed = lazy (Hidap.place (Lazy.force fig1_flat))

let raw_placements (r : Hidap.result) =
  List.map
    (fun (p : Hidap.macro_placement) -> (p.Hidap.fid, p.Hidap.rect, p.Hidap.orient))
    r.Hidap.placements

let test_audit_clean_place () =
  let flat = Lazy.force fig1_flat in
  let r = Lazy.force fig1_placed in
  let report =
    Guard.Audit.run ~flat ~die:r.Hidap.die ~placements:(raw_placements r)
  in
  Alcotest.(check bool) "audit ok" true (Guard.Audit.ok report);
  Alcotest.(check int) "all placed" 16 report.Guard.Audit.placed;
  check_float "no overlap" 0.0 report.Guard.Audit.overlap_area

let perturb kind f =
  let flat = Lazy.force fig1_flat in
  let r = Lazy.force fig1_placed in
  let placements =
    match raw_placements r with
    | first :: rest -> f first rest
    | [] -> assert false
  in
  let report = Guard.Audit.run ~flat ~die:r.Hidap.die ~placements in
  Alcotest.(check bool) (kind ^ " fails audit") false (Guard.Audit.ok report);
  Alcotest.(check bool) ("violation is " ^ kind) true
    (List.exists (fun (v : Guard.Audit.violation) -> v.Guard.Audit.kind = kind)
       report.Guard.Audit.violations)

let test_audit_overlap () =
  perturb "overlap" (fun (fid, r, o) rest ->
      match rest with
      | (_, r2, _) :: _ -> (fid, { r with Rect.x = r2.Rect.x; y = r2.Rect.y }, o) :: rest
      | [] -> assert false)

let test_audit_out_of_die () =
  perturb "out-of-die" (fun (fid, r, o) rest ->
      (fid, { r with Rect.x = -1e4 }, o) :: rest)

let test_audit_footprint () =
  perturb "footprint" (fun (fid, r, o) rest ->
      (fid, { r with Rect.w = r.Rect.w /. 2.0 }, o) :: rest)

let test_audit_duplicate () =
  perturb "duplicate" (fun p rest -> p :: p :: rest)

let test_audit_non_finite () =
  perturb "non-finite" (fun (fid, r, o) rest ->
      (fid, { r with Rect.x = Float.nan }, o) :: rest)

(* ---- end-to-end: every fault site degrades to a legal placement --- *)

(* Temp checkpoint dir for the ckpt fault sites: the sites only fire
   when a session is active, so those legs place with one. *)
let fresh_ckpt_dir () =
  let dir = Filename.temp_file "hidap-ckpt-test" "" in
  Sys.remove dir;
  dir

let fig1_fingerprint flat =
  { Ckpt.State.circuit = "fig1";
    seed = Hidap.Config.default.Hidap.Config.seed;
    lambda = Hidap.Config.default.Hidap.Config.lambda;
    sa_starts = Hidap.Config.default.Hidap.Config.sa_starts;
    cells = Flat.cell_count flat;
    macro_count = Flat.macro_count flat }

(* The serve.* sites are checked engine-side by the daemon, not inside
   the placement flow — Supervisor.with_run never hits them, so the
   matrix (which expects a recorded degradation per site) skips them.
   They are exercised in test_serve.ml instead. *)
let flow_sites =
  List.filter
    (fun (site, _) -> not (String.length site >= 6 && String.sub site 0 6 = "serve."))
    Guard.Fault.sites

let test_fault_matrix () =
  let flat = Lazy.force fig1_flat in
  List.iter
    (fun (site, _) ->
      let spec = { Guard.Fault.site; nth = 1; action = Guard.Fault.Raise } in
      let is_ckpt_site = String.length site >= 4 && String.sub site 0 4 = "ckpt" in
      let r, degradations =
        Guard.Supervisor.with_run ~faults:[ spec ] (fun () ->
            let ckpt =
              if not is_ckpt_site then None
              else
                (* resume:true so the load path (and its fault site) runs
                   even on this empty store. *)
                match
                  Ckpt.Session.start ~dir:(fresh_ckpt_dir ()) ~resume:true
                    (fig1_fingerprint flat)
                with
                | Ok s -> Some s
                | Error d -> Alcotest.failf "session start failed: %a" Guard.Diag.pp d
            in
            let r = Hidap.place ?ckpt flat in
            (* reach the cell-placement site the way `place --qor` does *)
            let gseq = r.Hidap.gseq and ports = r.Hidap.ports in
            ignore
              (Evalflow.measure ~flat ~gseq ~ports ~die:r.Hidap.die
                 ~macros:r.Hidap.placements);
            r)
      in
      Alcotest.(check bool) (site ^ " recorded") true
        (List.exists
           (fun (e : Guard.Supervisor.entry) -> e.Guard.Supervisor.stage = site)
           degradations);
      let report =
        Guard.Audit.run ~flat ~die:r.Hidap.die ~placements:(raw_placements r)
      in
      if not (Guard.Audit.ok report) then
        Alcotest.failf "%s: degraded placement fails audit: %a" site
          Guard.Audit.pp_summary report)
    flow_sites

let test_supervised_clean_run_identical () =
  let flat = Lazy.force fig1_flat in
  let plain = Hidap.place flat in
  let supervised, degradations =
    Guard.Supervisor.with_run (fun () -> Hidap.place flat)
  in
  Alcotest.(check int) "no degradations" 0 (List.length degradations);
  List.iter2
    (fun (a : Hidap.macro_placement) (b : Hidap.macro_placement) ->
      Alcotest.(check int) "same macro" a.Hidap.fid b.Hidap.fid;
      Alcotest.(check bool) "same rect" true (Rect.equal a.Hidap.rect b.Hidap.rect);
      Alcotest.(check bool) "same orient" true (a.Hidap.orient = b.Hidap.orient))
    plain.Hidap.placements supervised.Hidap.placements

(* ---- parser fuzz -------------------------------------------------- *)

(* Random byte-level corruption of a well-formed HNL text must never
   escape the parser as anything but a positioned [Error] — no
   exceptions, no invalid designs slipping through the validator
   unnoticed. *)
let fuzz_source =
  lazy (Hnl.Printer.to_string (Circuitgen.Suite.fig1_design ()))

let mutate rng s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let ops = 1 + Util.Rng.int rng 4 in
  let garbage = "{}()[];:=$#\x00\xff aZ09._-\"\n" in
  for _ = 1 to ops do
    match Util.Rng.int rng 3 with
    | 0 when n > 0 ->
      (* flip one byte *)
      let i = Util.Rng.int rng n in
      Bytes.set b i garbage.[Util.Rng.int rng (String.length garbage)]
    | _ -> ()
  done;
  let s = Bytes.to_string b in
  (* sometimes truncate *)
  if n > 0 && Util.Rng.int rng 4 = 0 then String.sub s 0 (Util.Rng.int rng n)
  else s

let test_parser_fuzz () =
  let src = Lazy.force fuzz_source in
  let rng = Util.Rng.create 0xF422 in
  for _ = 1 to 200 do
    let text = mutate rng src in
    match Hnl.Parser.parse_string text with
    | Error { Hnl.Parser.line; col; message } ->
      Alcotest.(check bool) "line is sane" true (line >= 0);
      Alcotest.(check bool) "col is sane" true (col >= 0);
      Alcotest.(check bool) "message non-empty" true (String.length message > 0)
    | Ok design -> (
      (* accepted text must still be a design the validator can pass
         or reject with diagnostics — never crash downstream *)
      match Guard.Validate.design design with
      | Ok _ | Error _ -> ())
    | exception e ->
      Alcotest.failf "parser raised %s on mutated input" (Printexc.to_string e)
  done

let suite =
  [ ( "guard",
      [ Alcotest.test_case "validate clean design" `Quick test_validate_clean;
        Alcotest.test_case "validate dangling binding" `Quick
          test_validate_dangling_binding;
        Alcotest.test_case "validate strict escalates" `Quick
          test_validate_strict_escalates;
        Alcotest.test_case "validate missing module" `Quick
          test_validate_missing_module;
        Alcotest.test_case "validate bad area" `Quick test_validate_bad_area;
        Alcotest.test_case "validate macro exceeds die" `Quick
          test_validate_flat_macro_exceeds_die;
        Alcotest.test_case "fault spec parsing" `Quick test_fault_parse;
        Alcotest.test_case "fault hit counting" `Quick test_fault_hit_counts;
        Alcotest.test_case "budget parse and trip" `Quick
          test_budget_parse_and_check;
        Alcotest.test_case "protect re-raises outside run" `Quick
          test_protect_outside_run_reraises;
        Alcotest.test_case "protect degrades inside run" `Quick
          test_protect_inside_run_degrades;
        Alcotest.test_case "protect never absorbs Diag.Fail" `Quick
          test_protect_never_absorbs_diag;
        Alcotest.test_case "ledger dedups and sorts" `Quick
          test_with_run_dedups_and_sorts;
        Alcotest.test_case "degraded false outside run" `Quick
          test_degraded_false_outside_run;
        Alcotest.test_case "audit clean placement" `Quick test_audit_clean_place;
        Alcotest.test_case "audit catches overlap" `Quick test_audit_overlap;
        Alcotest.test_case "audit catches out-of-die" `Quick test_audit_out_of_die;
        Alcotest.test_case "audit catches footprint" `Quick test_audit_footprint;
        Alcotest.test_case "audit catches duplicate" `Quick test_audit_duplicate;
        Alcotest.test_case "audit catches non-finite" `Quick test_audit_non_finite;
        Alcotest.test_case "every fault site stays audit-clean" `Slow
          test_fault_matrix;
        Alcotest.test_case "supervised clean run identical" `Quick
          test_supervised_clean_run_identical;
        Alcotest.test_case "parser fuzz never crashes" `Quick test_parser_fuzz ] ) ]
