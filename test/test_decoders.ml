(* One table of every document reader, each driven from its own
   encoder's output: the document round-trips; a known field replaced
   by a wrong-typed value is an [Error] naming that field's path; a
   dropped optional field takes its default; an unknown field changes
   nothing. The paths are walked, not listed, so a field added to an
   encoder is covered the day it is written. *)

module Jsonx = Obs.Jsonx
module Record = Qor.Record
module Baseline = Qor.Baseline
module State = Ckpt.State
module P = Serve.Proto

type case =
  | Case : {
      name : string;
      value : 'a;
      encode : 'a -> Jsonx.t;
      decode : Jsonx.t -> ('a, string) result;
      opaque : string list;  (** decoded as any JSON: no type to violate *)
      maps : string list;  (** objects whose keys are data, not fields *)
      defaults : (string * ('a -> 'a)) list;
          (** optional field, and the value read back without it *)
    }
      -> case

let join prefix k = if prefix = "" then k else prefix ^ "." ^ k

let index prefix i = Printf.sprintf "%s[%d]" prefix i

(* Every (path, value) below the root, parents before children. *)
let rec paths prefix j =
  let here = if prefix = "" then [] else [ (prefix, j) ] in
  here
  @
  match j with
  | Jsonx.Obj fields -> List.concat_map (fun (k, v) -> paths (join prefix k) v) fields
  | Jsonx.List items -> List.concat (List.mapi (fun i v -> paths (index prefix i) v) items)
  | _ -> []

(* Rewrite the value at [target] ([None] drops an object field). *)
let rec edit target f prefix j =
  match j with
  | Jsonx.Obj fields ->
    Jsonx.Obj
      (List.filter_map
         (fun (k, v) ->
           let p = join prefix k in
           if p = target then Option.map (fun v -> (k, v)) (f v)
           else Some (k, edit target f p v))
         fields)
  | Jsonx.List items ->
    Jsonx.List
      (List.mapi
         (fun i v ->
           let p = index prefix i in
           if p = target then Option.value ~default:v (f v) else edit target f p v)
         items)
  | v -> v

let under roots p =
  List.exists
    (fun o ->
      p = o
      || Astring.String.is_prefix ~affix:(o ^ ".") p
      || Astring.String.is_prefix ~affix:(o ^ "[") p)
    roots

let wrong = function Jsonx.Bool _ -> Jsonx.String "x" | _ -> Jsonx.Bool true

let check_case (Case c) () =
  let doc =
    match Jsonx.parse (Jsonx.to_string (c.encode c.value)) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "%s: encoder output does not parse: %s" c.name e
  in
  let decodes_to what expected doc =
    match c.decode doc with
    | Ok v -> if v <> expected then Alcotest.failf "%s: %s decodes to another value" c.name what
    | Error e -> Alcotest.failf "%s: %s: %s" c.name what e
  in
  decodes_to "round trip" c.value doc;
  let checked = ref 0 in
  List.iter
    (fun (p, v) ->
      if not (under c.opaque p) then begin
        incr checked;
        match c.decode (edit p (fun _ -> Some (wrong v)) "" doc) with
        | Ok _ -> Alcotest.failf "%s: %s made wrong-typed still decodes" c.name p
        | Error e ->
          if not (Astring.String.is_infix ~affix:p e) then
            Alcotest.failf "%s: wrong-typed %s: error %S does not name it" c.name p e
      end)
    (paths "" doc);
  if !checked = 0 then Alcotest.failf "%s: no field checked" c.name;
  List.iter
    (fun (p, default) ->
      if not (List.mem_assoc p (paths "" doc)) then
        Alcotest.failf "%s: optional %s not in the document" c.name p;
      decodes_to ("without " ^ p) (default c.value) (edit p (fun _ -> None) "" doc);
      decodes_to (p ^ " null") (default c.value) (edit p (fun _ -> Some Jsonx.Null) "" doc))
    c.defaults;
  let extra = ("zz_unknown", Jsonx.Obj [ ("k", Jsonx.Int 1) ]) in
  let add = function Jsonx.Obj fields -> Jsonx.Obj (fields @ [ extra ]) | v -> v in
  decodes_to "unknown top-level field" c.value (add doc);
  List.iter
    (fun (p, v) ->
      match v with
      | Jsonx.Obj _ when not (under c.opaque p || List.mem p c.maps) ->
        decodes_to ("unknown field in " ^ p) c.value (edit p (fun v -> Some (add v)) "" doc)
      | _ -> ())
    (paths "" doc)

(* ---- the table ----------------------------------------------------- *)

let record = Test_qor.sample_record ()

let record_maps = [ "displacement"; "perf.counters"; "cost_breakdown.term_curves" ]

let record_defaults : (string * (Record.t -> Record.t)) list =
  [ ("lambda", fun r -> { r with Record.lambda = None });
    ("displacement", fun r -> { r with Record.displacement = [] });
    ("sa", fun r -> { r with Record.sa_moves = 0; sa_curve = [] });
    ("sa.moves", fun r -> { r with Record.sa_moves = 0 });
    ("sa.curve", fun r -> { r with Record.sa_curve = [] });
    ("stages", fun r -> { r with Record.stages = [] });
    ("gc", fun r -> { r with Record.gc = None });
    ("gc.compactions", Fun.id (* 0 in the sample *));
    ("macros", fun r -> { r with Record.macros = [] });
    ("levels", fun r -> { r with Record.levels = [] });
    ("degradations", fun r -> { r with Record.degradations = [] });
    ("ckpt", fun r -> { r with Record.ckpt = None });
    ( "ckpt.resumed_from",
      fun r ->
        { r with
          Record.ckpt =
            Option.map (fun c -> { c with Record.resumed_from = None }) r.Record.ckpt } );
    ("perf", fun r -> { r with Record.perf = None });
    ( "perf.pool",
      fun r ->
        { r with
          Record.perf =
            Option.map
              (fun p ->
                { p with Record.pool_workers = []; pool_wall_us = 0.0; pool_maps = 0 })
              r.Record.perf } );
    ( "perf.profile",
      fun r ->
        { r with
          Record.perf = Option.map (fun p -> { p with Record.profile = [] }) r.Record.perf } );
    ("cost_breakdown", fun r -> { r with Record.cost_breakdown = None });
    ( "cost_breakdown.pairs",
      fun r ->
        { r with
          Record.cost_breakdown =
            Option.map (fun cb -> { cb with Record.cb_pairs = [] }) r.Record.cost_breakdown }
    ) ]

let baseline =
  let b = Baseline.of_records [ record ] in
  (* runtime is never gated, so never stored *)
  { b with
    Baseline.entries =
      List.map
        (fun (e : Baseline.entry) ->
          { e with Baseline.qm = { e.Baseline.qm with Record.runtime_s = 0.0 } })
        b.Baseline.entries }

let submit =
  { P.circuit = Some "c1"; hnl = Some "design t\n"; seed = 7; lambda = Some 0.25;
    jobs = 2; deadline_s = Some 1.5; max_retries = 2; label = "x" }

let submit_defaults : (string * (P.submit -> P.submit)) list =
  let d = P.default_submit in
  [ ("circuit", fun s -> { s with P.circuit = None });
    ("hnl", fun s -> { s with P.hnl = None });
    ("seed", fun s -> { s with P.seed = d.P.seed });
    ("lambda", fun s -> { s with P.lambda = None });
    ("jobs", fun s -> { s with P.jobs = d.P.jobs });
    ("deadline_s", fun s -> { s with P.deadline_s = None });
    ("max_retries", fun s -> { s with P.max_retries = d.P.max_retries });
    ("label", fun s -> { s with P.label = d.P.label }) ]

let view =
  { P.id = "j0001"; label = "x"; state = P.Timed_out; attempts = 2;
    detail = "deadline 0.5s" }

let stats =
  { P.queue_depth = 1; queue_limit = 8; accepted = 3; rejected_backpressure = 1;
    rejected_draining = 2; completed = 2; failed = 1; timed_out = 1; parked = 1;
    retried = 1; worker_lost = 1; draining = true;
    workers =
      [ { P.slot = 0; pid = Some 4242; job = Some "j0002"; elapsed_s = 1.5 };
        { P.slot = 1; pid = None; job = None; elapsed_s = 0.0 } ] }

let job =
  let j = Serve.Job.make ~seq:4 submit in
  j.Serve.Job.state <- P.Failed;
  j.Serve.Job.attempts <- 3;
  j.Serve.Job.detail <- "boom";
  j

let gc =
  { Obs.Gcstats.minor_words = 1.0e7; promoted_words = 1.0e5; major_words = 2.0e5;
    minor_collections = 12; major_collections = 3; compactions = 1; heap_words = 500_000;
    top_heap_words = 600_000 }

let response name r ~opaque ~defaults =
  Case
    { name; value = r; encode = P.response_to_json; decode = P.response_of_json; opaque;
      maps = []; defaults }

let cases =
  [ Case
      { name = "Record.of_json"; value = record; encode = Record.to_json;
        decode = Record.of_json; opaque = []; maps = record_maps;
        defaults = record_defaults };
    Case
      { name = "Record.records_of_json";
        value = [ record; { record with Record.flow = "IndEDA"; perf = None } ];
        encode = Record.ledger_json; decode = Record.records_of_json; opaque = [];
        maps =
          List.concat_map (fun i -> List.map (join (index "records" i)) record_maps) [ 0; 1 ];
        defaults = [] };
    Case
      { name = "Baseline.of_json"; value = baseline; encode = Baseline.to_json;
        decode = Baseline.of_json; opaque = []; maps = [ "tolerances" ];
        defaults =
          [ ("version", Fun.id);
            ( "tolerances",
              fun b -> { b with Baseline.tolerances = (Baseline.of_records []).Baseline.tolerances }
            );
            ("entries", fun b -> { b with Baseline.entries = [] }) ] };
    Case
      { name = "Ckpt.State.of_payload"; value = Test_ckpt.sample_state ();
        encode = State.to_json;
        decode = (fun j -> State.of_payload (Jsonx.to_string ~compact:true j));
        opaque = []; maps = []; defaults = [] };
    Case
      { name = "Gcstats.of_json"; value = gc; encode = Obs.Gcstats.to_json;
        decode = Obs.Gcstats.of_json; opaque = []; maps = [];
        defaults =
          [ ("allocated_words", Fun.id);
            ("compactions", fun g -> { g with Obs.Gcstats.compactions = 0 });
            ("top_heap_words", fun g -> { g with Obs.Gcstats.top_heap_words = 0 }) ] };
    Case
      { name = "Proto.submit_of_json"; value = submit;
        encode = (fun s -> Jsonx.Obj (P.submit_fields s)); decode = P.submit_of_json;
        opaque = []; maps = []; defaults = submit_defaults };
    Case
      { name = "request submit"; value = P.Submit submit;
        encode = P.request_to_json; decode = P.request_of_json; opaque = []; maps = [];
        defaults =
          List.map
            (fun (p, f) ->
              (p, function P.Submit s -> P.Submit (f s) | r -> r))
            submit_defaults };
    Case
      { name = "request status"; value = P.Status "j0003";
        encode = P.request_to_json; decode = P.request_of_json; opaque = []; maps = [];
        defaults = [] };
    response "response job" (P.Job view) ~opaque:[]
      ~defaults:
        [ ("job.label", fun _ -> P.Job { view with P.label = "" });
          ("job.attempts", fun _ -> P.Job { view with P.attempts = 0 });
          ("job.detail", fun _ -> P.Job { view with P.detail = "" }) ];
    response "response jobs" (P.Jobs [ view; { view with P.state = P.Running } ])
      ~opaque:[] ~defaults:[];
    response "response stats" (P.Stats_reply stats) ~opaque:[]
      ~defaults:
        [ ("stats.parked", fun _ -> P.Stats_reply { stats with P.parked = 0 });
          ("stats.draining", fun _ -> P.Stats_reply { stats with P.draining = false });
          ("stats.workers", fun _ -> P.Stats_reply { stats with P.workers = [] });
          ( "stats.workers[0].pid",
            fun _ ->
              P.Stats_reply
                { stats with
                  P.workers =
                    { (List.hd stats.P.workers) with P.pid = None } :: List.tl stats.P.workers
                } ) ];
    response "response accepted" (P.Accepted { id = "j0001"; depth = 2 })
      ~opaque:[]
      ~defaults:[ ("depth", fun _ -> P.Accepted { id = "j0001"; depth = 0 }) ];
    response "response rejected"
      (P.Rejected { reason = "backpressure"; depth = 8; limit = 8 }) ~opaque:[]
      ~defaults:[ ("reason", fun _ -> P.Rejected { reason = ""; depth = 8; limit = 8 }) ];
    response "response result"
      (P.Result_reply { id = "j0001"; qor = Jsonx.Obj [ ("k", Jsonx.Int 1) ] })
      ~opaque:[ "qor" ]
      ~defaults:[ ("qor", fun _ -> P.Result_reply { id = "j0001"; qor = Jsonx.Null }) ];
    response "response progress"
      (P.Progress { id = "j0001"; event = Jsonx.Obj [ ("event", Jsonx.String "x") ] })
      ~opaque:[ "event" ] ~defaults:[];
    response "response error" (P.Error_reply "nope") ~opaque:[]
      ~defaults:[ ("message", fun _ -> P.Error_reply "") ];
    Case
      { name = "Serve.Job.of_json"; value = job; encode = Serve.Job.to_json;
        decode = Serve.Job.of_json; opaque = []; maps = [];
        defaults =
          [ ("schema", Fun.id);
            ("version", Fun.id);
            ("spec", fun j -> { j with Serve.Job.spec = P.default_submit });
            ("spec.lambda", fun j -> { j with Serve.Job.spec = { submit with P.lambda = None } });
            ("attempts", fun j -> { j with Serve.Job.attempts = 0 });
            ("detail", fun j -> { j with Serve.Job.detail = "" }) ] } ]

(* The three malformed fields the strict decoders exist for, end to end
   through the text each reader is given. *)
let test_named_failures () =
  let expect what affix = function
    | Ok _ -> Alcotest.failf "%s decoded" what
    | Error e ->
      if not (Astring.String.is_infix ~affix e) then
        Alcotest.failf "%s: error %S does not name %s" what e affix
  in
  expect "a submit's string lambda" "lambda"
    (P.request_of_line
       {|{"schema":"hidap-serve","version":1,"req":"submit","circuit":"c1","lambda":"0.2"}|});
  let base =
    edit "entries[0].metrics.grc_pct" (fun _ -> Some (Jsonx.String "6.3")) ""
      (Baseline.to_json baseline)
  in
  expect "a string baseline metric" "entries[0].metrics.grc_pct" (Baseline.of_json base);
  let rect3 =
    edit "macros[0].rect"
      (function Jsonx.List (x :: y :: w :: _) -> Some (Jsonx.List [ x; y; w ]) | v -> Some v)
      "" (Record.to_json record)
  in
  expect "a 3-number macro rect" "macros[0].rect" (Record.records_of_json rect3)

let suite =
  [ ( "decoders",
      List.map
        (fun (Case c as case) -> Alcotest.test_case c.name `Quick (check_case case))
        cases
      @ [ Alcotest.test_case "malformed fields are named errors" `Quick test_named_failures ]
    ) ]
