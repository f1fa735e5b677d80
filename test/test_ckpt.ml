(* Checkpoint subsystem: CRC, envelope atomicity/rejection, state
   codec, store retention and rollback, and the resume contract — a
   resumed run is bit-identical to an uninterrupted one. *)

module Flat = Netlist.Flat
module Rect = Geom.Rect
module Crc32 = Ckpt.Crc32
module Envelope = Ckpt.Envelope
module State = Ckpt.State
module Store = Ckpt.Store
module Session = Ckpt.Session

let fresh_file () = Filename.temp_file "hidap-env" ".ckpt"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- crc32 -------------------------------------------------------- *)

let test_crc32_known_answer () =
  (* IEEE 802.3 check value for the standard test vector. *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "")

let test_crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.string s in
  let split =
    Crc32.update (Crc32.update 0l s ~pos:0 ~len:9) s ~pos:9
      ~len:(String.length s - 9)
  in
  Alcotest.(check int32) "incremental = one-shot" whole split

let test_crc32_hex () =
  let c = Crc32.string "abc" in
  Alcotest.(check bool) "hex round-trip" true (Crc32.of_hex (Crc32.to_hex c) = Some c);
  Alcotest.(check bool) "bad hex rejected" true (Crc32.of_hex "xyzw1234" = None);
  Alcotest.(check bool) "short hex rejected" true (Crc32.of_hex "12" = None)

(* ---- envelope ----------------------------------------------------- *)

let test_envelope_roundtrip () =
  let path = fresh_file () in
  let payload = "line1\nline2 with \"quotes\"\n\x00\x7f binary-ish\n" in
  Envelope.write path payload;
  (match Envelope.read path with
  | Ok p -> Alcotest.(check string) "payload" payload p
  | Error msg -> Alcotest.failf "read failed: %s" msg);
  Sys.remove path

let test_envelope_truncation_rejected () =
  let path = fresh_file () in
  Envelope.write path "a payload that will lose its tail";
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s - 1));
  (match Envelope.read path with
  | Ok _ -> Alcotest.fail "truncated envelope must be rejected"
  | Error msg ->
    Alcotest.(check bool) "mentions truncation" true
      (Astring.String.is_infix ~affix:"truncated" msg));
  Sys.remove path

let test_envelope_bitflip_rejected () =
  let path = fresh_file () in
  Envelope.write path "a payload whose bytes will be flipped";
  let s = read_file path in
  let b = Bytes.of_string s in
  (* flip a bit in the middle of the payload, far from the header *)
  let i = Bytes.length b - 5 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  write_file path (Bytes.to_string b);
  (match Envelope.read path with
  | Ok _ -> Alcotest.fail "bit-flipped envelope must be rejected"
  | Error msg ->
    Alcotest.(check bool) "mentions crc" true
      (Astring.String.is_infix ~affix:"crc" msg));
  Sys.remove path

let test_envelope_garbage_rejected () =
  let path = fresh_file () in
  write_file path "not an envelope at all\n";
  (match Envelope.read path with
  | Ok _ -> Alcotest.fail "garbage must be rejected"
  | Error _ -> ());
  Sys.remove path

(* ---- state codec --------------------------------------------------- *)

let sample_fp =
  { State.circuit = "fig1"; seed = 11; lambda = 0.5; sa_starts = 4; cells = 128;
    macro_count = 3 }

let sample_state () =
  { State.fp = sample_fp;
    instances =
      [ { State.nh = 0; depth = 0; n_blocks = 3;
          rects =
            [| Rect.make ~x:0.0 ~y:0.0 ~w:10.0 ~h:5.0;
               Rect.make ~x:10.125 ~y:0.0 ~w:4.75 ~h:5.0 |];
          sa_moves = 123; rng_after = 0x9E3779B97F4A7C15L };
        { State.nh = 7; depth = 1; n_blocks = 2;
          rects = [| Rect.make ~x:1e-9 ~y:3.0 ~w:0.1 ~h:0.2 |];
          sa_moves = 45; rng_after = -1L } ];
    stages = [ "floorplan"; "flipping" ] }

let test_state_roundtrip () =
  let st = sample_state () in
  match State.of_payload (State.to_payload st) with
  | Ok st' -> Alcotest.(check bool) "equal" true (State.equal st st')
  | Error msg -> Alcotest.failf "decode failed: %s" msg

(* Floats are stored as IEEE-754 bit images, so even NaN and the
   infinities survive exactly — a degraded-but-checkpointed run must
   not lose information in the snapshot. *)
let test_state_roundtrip_nonfinite () =
  let st = sample_state () in
  let st =
    { st with
      State.fp = { st.State.fp with State.lambda = Float.neg_infinity };
      instances =
        [ { State.nh = 1; depth = 0; n_blocks = 1;
            rects = [| Rect.make ~x:Float.nan ~y:Float.infinity ~w:1.0 ~h:(-0.0) |];
            sa_moves = 0; rng_after = 0L } ] }
  in
  match State.of_payload (State.to_payload st) with
  | Ok st' -> Alcotest.(check bool) "bit-exact non-finite" true (State.equal st st')
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_state_rejects_foreign () =
  (match State.of_payload "{\"schema\":\"something-else\",\"version\":1}" with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error _ -> ());
  match State.of_payload "not even json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* ---- store --------------------------------------------------------- *)

let test_store_retention () =
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  match Store.open_ ~keep:2 ~fresh:true dir with
  | Error msg -> Alcotest.failf "open failed: %s" msg
  | Ok store ->
    let st = sample_state () in
    for _ = 1 to 6 do
      ignore (Store.save store st)
    done;
    let entries = Store.entries store in
    Alcotest.(check (list int)) "the newest keep survive" [ 5; 6 ]
      (List.map (fun (e : Store.entry) -> e.Store.seq) entries);
    (* the dropped files are really gone from disk *)
    let on_disk =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
    in
    Alcotest.(check int) "disk matches the entries" (List.length entries)
      (List.length on_disk);
    (* a fresh process lists the directory and sees the same entries *)
    (match Store.open_ ~keep:2 ~fresh:false dir with
    | Error msg -> Alcotest.failf "reopen failed: %s" msg
    | Ok store' ->
      Alcotest.(check bool) "reopen sees entries" true (Store.entries store' = entries))

let test_store_rollback_past_corruption () =
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  match Store.open_ ~fresh:true dir with
  | Error msg -> Alcotest.failf "open failed: %s" msg
  | Ok store ->
    let st1 = sample_state () in
    let st2 = { st1 with State.stages = [ "floorplan" ] } in
    ignore (Store.save store st1);
    let e2 = Store.save store st2 in
    Store.corrupt_latest store;
    let (), degradations =
      Guard.Supervisor.with_run (fun () ->
          match Store.load_latest store with
          | None -> Alcotest.fail "rollback target lost"
          | Some l ->
            Alcotest.(check bool) "rolled back past the torn snapshot" true
              (l.Store.entry.Store.seq < e2.Store.seq);
            Alcotest.(check int) "one rejection" 1 (List.length l.Store.rejected);
            Alcotest.(check bool) "rolled-back state decodes" true
              (State.equal l.Store.state st1))
    in
    Alcotest.(check bool) "rollback in the ledger" true
      (List.exists
         (fun (e : Guard.Supervisor.entry) ->
           e.Guard.Supervisor.stage = "ckpt.load"
           && e.Guard.Supervisor.reason = "rollback")
         degradations)

let test_store_all_corrupt_is_empty () =
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  match Store.open_ ~fresh:true dir with
  | Error msg -> Alcotest.failf "open failed: %s" msg
  | Ok store ->
    ignore (Store.save store (sample_state ()));
    Store.corrupt_latest store;
    (match Store.load_latest store with
    | None -> ()
    | Some _ -> Alcotest.fail "single corrupted snapshot must load as None")

(* ---- flow property: save/load identity at stage boundaries --------- *)

let flat_of_circuit = function
  | "fig1" -> Flat.elaborate (Circuitgen.Suite.fig1_design ())
  | name ->
    (match Circuitgen.Suite.find name with
    | Some c -> Flat.elaborate (Circuitgen.Gen.generate c.Circuitgen.Suite.params)
    | None -> Alcotest.failf "unknown circuit %s" name)

let fingerprint ~name flat =
  { State.circuit = name;
    seed = Hidap.Config.default.Hidap.Config.seed;
    lambda = Hidap.Config.default.Hidap.Config.lambda;
    sa_starts = Hidap.Config.default.Hidap.Config.sa_starts;
    cells = Flat.cell_count flat;
    macro_count = Flat.macro_count flat }

let session_or_fail ~dir ~resume fp =
  match Session.start ~dir ~resume fp with
  | Ok s -> s
  | Error d -> Alcotest.failf "session start failed: %a" Guard.Diag.pp d

(* Every snapshot a checkpointed run leaves behind — periodic and
   stage-boundary — must decode to a state whose re-serialization is
   identical (save/load identity), and the final snapshot must carry
   both stage boundaries. *)
let save_load_identity name =
  let flat = flat_of_circuit name in
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  let session = session_or_fail ~dir ~resume:false (fingerprint ~name flat) in
  let _r = Hidap.place ~ckpt:session flat in
  match Store.open_ ~fresh:false dir with
  | Error msg -> Alcotest.failf "reopen failed: %s" msg
  | Ok store ->
    let entries = Store.entries store in
    Alcotest.(check bool) (name ^ " left snapshots") true (entries <> []);
    List.iter
      (fun (e : Store.entry) ->
        match Store.read_entry store e with
        | Error msg -> Alcotest.failf "%s: %s" e.Store.file msg
        | Ok st ->
          (match State.of_payload (State.to_payload st) with
          | Ok st' ->
            Alcotest.(check bool) (e.Store.file ^ " identity") true
              (State.equal st st')
          | Error msg -> Alcotest.failf "%s re-decode: %s" e.Store.file msg))
      entries;
    let last = List.nth entries (List.length entries - 1) in
    (match Store.read_entry store last with
    | Error msg -> Alcotest.failf "last snapshot: %s" msg
    | Ok st ->
      Alcotest.(check bool) "final snapshot has both stages" true
        (List.mem "floorplan" st.State.stages && List.mem "flipping" st.State.stages))

let test_save_load_identity_fig1 () = save_load_identity "fig1"

let test_save_load_identity_c1 () = save_load_identity "c1"

(* ---- resume determinism ------------------------------------------- *)

let bits = Int64.bits_of_float

let placements_bit_equal (a : Hidap.result) (b : Hidap.result) =
  List.length a.Hidap.placements = List.length b.Hidap.placements
  && List.for_all2
       (fun (p : Hidap.macro_placement) (q : Hidap.macro_placement) ->
         p.Hidap.fid = q.Hidap.fid && p.Hidap.orient = q.Hidap.orient
         && bits p.Hidap.rect.Rect.x = bits q.Hidap.rect.Rect.x
         && bits p.Hidap.rect.Rect.y = bits q.Hidap.rect.Rect.y
         && bits p.Hidap.rect.Rect.w = bits q.Hidap.rect.Rect.w
         && bits p.Hidap.rect.Rect.h = bits q.Hidap.rect.Rect.h)
       a.Hidap.placements b.Hidap.placements

(* Resume from the complete store: everything replays, nothing is
   recomputed, and the result is bit-identical to an un-checkpointed
   run. Then truncate the store back to an early snapshot and resume
   again: the tail is recomputed, same guarantee. *)
let resume_determinism name =
  let flat = flat_of_circuit name in
  let baseline = Hidap.place flat in
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  let fp = fingerprint ~name flat in
  let s0 = session_or_fail ~dir ~resume:false fp in
  let checkpointed = Hidap.place ~ckpt:s0 flat in
  Alcotest.(check bool) "checkpointed = plain" true
    (placements_bit_equal baseline checkpointed);
  (* full resume *)
  let s1 = session_or_fail ~dir ~resume:true fp in
  Alcotest.(check bool) "resumed from a snapshot" true
    (Session.resumed_from s1 <> None);
  let resumed = Hidap.place ~ckpt:s1 flat in
  Alcotest.(check bool) "full resume bit-identical" true
    (placements_bit_equal baseline resumed);
  let sm = Session.summary s1 in
  Alcotest.(check bool) "work was replayed, not redone" true
    (sm.Session.instances_reused > 0);
  (* truncated-prefix resume: drop every snapshot past the first, as a
     crash between the first snapshot and the next would. The reopened
     store adopts the survivor; the rest is recomputed. *)
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
    |> List.sort compare
  in
  (match files with
  | [] -> Alcotest.fail "no snapshots to truncate"
  | first :: rest ->
    List.iter (fun f -> Sys.remove (Filename.concat dir f)) rest;
    let s2 = session_or_fail ~dir ~resume:true fp in
    Alcotest.(check bool) "resumed from the survivor" true
      (Session.resumed_from s2 = Some first);
    let resumed' = Hidap.place ~ckpt:s2 flat in
    Alcotest.(check bool) "truncated-prefix resume bit-identical" true
      (placements_bit_equal baseline resumed'))

let test_resume_determinism_fig1 () = resume_determinism "fig1"

let test_resume_determinism_c1 () = resume_determinism "c1"

(* Snapshots written before flipping was recomputed on resume carry a
   "flip" entry. Such a snapshot still loads, and the resumed run
   recomputes flipping: even a stored entry that disagrees with the
   real orientations leaves the placement bit-identical to an
   uninterrupted run. *)
let test_resume_ignores_stored_flip () =
  let flat = flat_of_circuit "fig1" in
  let baseline = Hidap.place flat in
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  let fp = fingerprint ~name:"fig1" flat in
  ignore (Hidap.place ~ckpt:(session_or_fail ~dir ~resume:false fp) flat);
  let newest =
    match Store.open_ ~fresh:false dir with
    | Ok store -> List.nth (Store.entries store) (List.length (Store.entries store) - 1)
    | Error msg -> Alcotest.failf "reopen failed: %s" msg
  in
  let path = Filename.concat dir newest.Store.file in
  let doc =
    match Result.bind (Envelope.read path) Obs.Jsonx.parse with
    | Ok (Obs.Jsonx.Obj fields) -> fields
    | Ok _ -> Alcotest.fail "snapshot payload is not an object"
    | Error msg -> Alcotest.failf "snapshot unreadable: %s" msg
  in
  let flip =
    Obs.Jsonx.Obj
      [ ( "orientations",
          Obs.Jsonx.List
            (List.map
               (fun (p : Hidap.macro_placement) ->
                 Obs.Jsonx.List [ Obs.Jsonx.Int p.Hidap.fid; Obs.Jsonx.String "R180" ])
               baseline.Hidap.placements) );
        ("gain", Obs.Jsonx.String "3fec000000000000") ]
  in
  Envelope.write path
    (Obs.Jsonx.to_string ~compact:true (Obs.Jsonx.Obj (doc @ [ ("flip", flip) ])) ^ "\n");
  let s = session_or_fail ~dir ~resume:true fp in
  Alcotest.(check (option string)) "resumed from the flip-carrying snapshot"
    (Some newest.Store.file) (Session.resumed_from s);
  Alcotest.(check bool) "resume bit-identical" true
    (placements_bit_equal baseline (Hidap.place ~ckpt:s flat))

(* Resuming under a different fingerprint must refuse, not silently
   blend two runs. *)
let test_resume_fingerprint_mismatch () =
  let flat = flat_of_circuit "fig1" in
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  let fp = fingerprint ~name:"fig1" flat in
  let s0 = session_or_fail ~dir ~resume:false fp in
  ignore (Hidap.place ~ckpt:s0 flat);
  match Session.start ~dir ~resume:true { fp with State.seed = fp.State.seed + 1 } with
  | Ok _ -> Alcotest.fail "fingerprint mismatch accepted"
  | Error d ->
    Alcotest.(check string) "diagnostic code" "ckpt-mismatch" d.Guard.Diag.code

(* An empty (or missing) store with --resume starts from scratch, so
   retry loops are idempotent. *)
let test_resume_empty_store_is_fresh () =
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  let fp = sample_fp in
  let s = session_or_fail ~dir ~resume:true fp in
  Alcotest.(check bool) "fresh" true (Session.resumed_from s = None)

(* ---- fault sites ---------------------------------------------------- *)

(* [ckpt_write] costs the snapshots, never the placement. *)
let test_ckpt_write_fault_degrades () =
  let flat = flat_of_circuit "fig1" in
  let baseline = Hidap.place flat in
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  let spec = { Guard.Fault.site = "ckpt_write"; nth = 1; action = Guard.Fault.Raise } in
  let r, degradations =
    Guard.Supervisor.with_run ~faults:[ spec ] (fun () ->
        let s =
          session_or_fail ~dir ~resume:false (fingerprint ~name:"fig1" flat)
        in
        let r = Hidap.place ~ckpt:s flat in
        (r, Session.summary s))
  in
  let r, sm = r in
  Alcotest.(check bool) "degradation recorded" true
    (List.exists
       (fun (e : Guard.Supervisor.entry) -> e.Guard.Supervisor.stage = "ckpt_write")
       degradations);
  Alcotest.(check int) "first snapshot lost" 0 sm.Session.snapshots_written;
  Alcotest.(check int) "same macro count" (List.length baseline.Hidap.placements)
    (List.length r.Hidap.placements)

(* [ckpt_load_corrupt] tears the newest snapshot during resume; the
   session rolls back to the previous valid one and the run still
   completes with a legal placement. (The recorded degradation routes
   the run through the post-place repair pass, so a fault-injected run
   is not bit-compared against the clean baseline — kill-based resume,
   which records nothing, is; see the crash harness.) *)
let test_ckpt_load_corrupt_rolls_back () =
  let flat = flat_of_circuit "fig1" in
  let baseline = Hidap.place flat in
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  let fp = fingerprint ~name:"fig1" flat in
  let s0 = session_or_fail ~dir ~resume:false fp in
  ignore (Hidap.place ~ckpt:s0 flat);
  let spec =
    { Guard.Fault.site = "ckpt_load_corrupt"; nth = 1; action = Guard.Fault.Raise }
  in
  let r, degradations =
    Guard.Supervisor.with_run ~faults:[ spec ] (fun () ->
        let s = session_or_fail ~dir ~resume:true fp in
        (Hidap.place ~ckpt:s flat, Session.resumed_from s))
  in
  let r, resumed_from = r in
  Alcotest.(check bool) "fault recorded" true
    (List.exists
       (fun (e : Guard.Supervisor.entry) ->
         e.Guard.Supervisor.stage = "ckpt_load_corrupt")
       degradations);
  Alcotest.(check bool) "rollback recorded" true
    (List.exists
       (fun (e : Guard.Supervisor.entry) ->
         e.Guard.Supervisor.stage = "ckpt.load"
         && e.Guard.Supervisor.reason = "rollback")
       degradations);
  Alcotest.(check bool) "resumed from an earlier snapshot" true
    (resumed_from <> None);
  Alcotest.(check int) "every macro still placed"
    (List.length baseline.Hidap.placements)
    (List.length r.Hidap.placements);
  let placements =
    List.map
      (fun (p : Hidap.macro_placement) -> (p.Hidap.fid, p.Hidap.rect, p.Hidap.orient))
      r.Hidap.placements
  in
  Alcotest.(check bool) "degraded placement passes the audit" true
    (Guard.Audit.ok (Guard.Audit.run ~flat ~die:r.Hidap.die ~placements))

(* ---- gc ------------------------------------------------------------ *)

let test_gc_sweeps_unreferenced () =
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  (match Store.open_ ~fresh:true dir with
  | Error msg -> Alcotest.failf "open failed: %s" msg
  | Ok store ->
    for _ = 1 to 3 do
      ignore (Store.save store (sample_state ()))
    done);
  (* a second fresh sequence ignores — but does not delete — the first *)
  (match Store.open_ ~fresh:true dir with
  | Error msg -> Alcotest.failf "reopen failed: %s" msg
  | Ok store ->
    ignore (Store.save store (sample_state ()));
    let before =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
    in
    Alcotest.(check bool) "old sequence still on disk" true (List.length before > 1);
    let removed = Store.gc store in
    Alcotest.(check bool) "gc removed the orphans" true (removed <> []);
    let after =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
    in
    Alcotest.(check int) "only the live sequence remains" 1 (List.length after))

(* The snapshot files are the whole index. A store one c1 run wrote,
   reopened by another process with no manifest.json anywhere: ls marks
   a stage boundary only where the decoded stage list grew, and gc
   keeps exactly the newest snapshot, which supersedes the rest. *)
let test_reopened_store_index () =
  let flat = flat_of_circuit "c1" in
  Tmp_dir.with_dir "hidap-ckpt" @@ fun dir ->
  let session = session_or_fail ~dir ~resume:false (fingerprint ~name:"c1" flat) in
  ignore (Hidap.place ~ckpt:session flat);
  let manifest = Filename.concat dir "manifest.json" in
  if Sys.file_exists manifest then Sys.remove manifest;
  let cli = Lazy.force Test_serve.cli in
  let ic = Unix.open_process_args_in cli [| cli; "ckpt"; "ls"; dir |] in
  let lines = In_channel.input_lines ic in
  Alcotest.(check bool) "ckpt ls exits 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  Alcotest.(check int) "ls lists every snapshot" 4 (List.length lines);
  let marked =
    List.filter (fun l -> Astring.String.is_infix ~affix:"  stage  " l) lines
  in
  let stages l =
    match Astring.String.cut ~rev:true ~sep:"stages " l with Some (_, s) -> s | None -> l
  in
  Alcotest.(check (list string)) "only the two stage-list growths are marked"
    [ "floorplan"; "floorplan+flipping" ] (List.map stages marked);
  match Store.open_ ~fresh:false dir with
  | Error msg -> Alcotest.failf "reopen failed: %s" msg
  | Ok store ->
    let newest = List.nth (Store.entries store) 3 in
    Alcotest.(check int) "gc removes the three older" 3
      (List.length (Store.gc ~keep:1 store));
    let left =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
    in
    Alcotest.(check (list string)) "gc keeps exactly the newest" [ newest.Store.file ] left

let suite =
  [ ( "ckpt",
      [ Alcotest.test_case "crc32 known answer" `Quick test_crc32_known_answer;
        Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
        Alcotest.test_case "crc32 hex" `Quick test_crc32_hex;
        Alcotest.test_case "envelope round-trip" `Quick test_envelope_roundtrip;
        Alcotest.test_case "envelope rejects truncation" `Quick
          test_envelope_truncation_rejected;
        Alcotest.test_case "envelope rejects bit flips" `Quick
          test_envelope_bitflip_rejected;
        Alcotest.test_case "envelope rejects garbage" `Quick
          test_envelope_garbage_rejected;
        Alcotest.test_case "state round-trip" `Quick test_state_roundtrip;
        Alcotest.test_case "state round-trip non-finite" `Quick
          test_state_roundtrip_nonfinite;
        Alcotest.test_case "state rejects foreign payloads" `Quick
          test_state_rejects_foreign;
        Alcotest.test_case "store retention" `Quick test_store_retention;
        Alcotest.test_case "store rolls back past corruption" `Quick
          test_store_rollback_past_corruption;
        Alcotest.test_case "store of one corrupt snapshot is empty" `Quick
          test_store_all_corrupt_is_empty;
        Alcotest.test_case "gc sweeps unreferenced snapshots" `Quick
          test_gc_sweeps_unreferenced;
        Alcotest.test_case "reopened store: ls stages, gc keep 1" `Quick
          test_reopened_store_index;
        Alcotest.test_case "save/load identity (fig1)" `Quick
          test_save_load_identity_fig1;
        Alcotest.test_case "save/load identity (c1)" `Slow
          test_save_load_identity_c1;
        Alcotest.test_case "resume determinism (fig1)" `Quick
          test_resume_determinism_fig1;
        Alcotest.test_case "resume determinism (c1)" `Slow
          test_resume_determinism_c1;
        Alcotest.test_case "resume ignores a stored flip" `Quick
          test_resume_ignores_stored_flip;
        Alcotest.test_case "resume refuses fingerprint mismatch" `Quick
          test_resume_fingerprint_mismatch;
        Alcotest.test_case "resume on empty store is fresh" `Quick
          test_resume_empty_store_is_fresh;
        Alcotest.test_case "ckpt_write fault degrades" `Quick
          test_ckpt_write_fault_degrades;
        Alcotest.test_case "ckpt_load_corrupt rolls back" `Quick
          test_ckpt_load_corrupt_rolls_back ] ) ]
