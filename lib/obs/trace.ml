type t = Span.t list

let start = Span.start_recording

let finish = Span.finish_recording

let instrumented ?(on_finish = ignore) f =
  Metrics.reset Metrics.global;
  Metrics.set_enabled true;
  Perf.reset Perf.global;
  Perf.set_enabled true;
  start ();
  let stop () =
    let spans = finish () in
    Metrics.set_enabled false;
    Perf.set_enabled false;
    on_finish spans;
    spans
  in
  match f () with
  | v -> (v, stop ())
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (stop ());
    Printexc.raise_with_backtrace e bt

let event ~t0 (sp : Span.t) =
  let base =
    [ ("name", Jsonx.String sp.Span.name);
      ("ph", Jsonx.String "X");
      ("ts", Jsonx.Float (sp.Span.start_us -. t0));
      ("dur", Jsonx.Float sp.Span.dur_us);
      ("pid", Jsonx.Int 1);
      ("tid", Jsonx.Int 1) ]
  in
  let args =
    match sp.Span.attrs with
    | [] -> []
    | attrs ->
      [ ("args", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.String v)) attrs)) ]
  in
  Jsonx.Obj (base @ args)

let to_chrome_json spans =
  (* Timestamps are rebased to the first span so they stay precise
     through the float printer regardless of the clock's origin. *)
  let t0 = match spans with [] -> 0.0 | sp :: _ -> sp.Span.start_us in
  (* Start-order traversal: parent event first, then its children. *)
  let rec emit acc sp = List.fold_left emit (event ~t0 sp :: acc) sp.Span.children in
  Jsonx.List (List.rev (List.fold_left emit [] spans))

let write_chrome_file path spans = Jsonx.write_file path (to_chrome_json spans)

let stage_totals spans =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  let rec visit (sp : Span.t) =
    (match Hashtbl.find_opt tbl sp.Span.name with
    | Some (total, calls) -> Hashtbl.replace tbl sp.Span.name (total +. sp.Span.dur_us, calls + 1)
    | None ->
      Hashtbl.replace tbl sp.Span.name (sp.Span.dur_us, 1);
      order := sp.Span.name :: !order);
    List.iter visit sp.Span.children
  in
  List.iter visit spans;
  List.rev_map
    (fun name ->
      let total, calls = Hashtbl.find tbl name in
      (name, total, calls))
    !order

let fmt_dur us =
  if us >= 1e6 then Printf.sprintf "%.2fs" (us /. 1e6)
  else if us >= 1e3 then Printf.sprintf "%.1fms" (us /. 1e3)
  else Printf.sprintf "%.0fus" us

let summary spans =
  let buf = Buffer.create 1024 in
  let rec go prefix ~parent_dur (sp : Span.t) ~is_last =
    let branch, child_prefix =
      match prefix with
      | None -> ("", "")
      | Some p -> ((p ^ if is_last then "`- " else "|- "), p ^ if is_last then "   " else "|  ")
    in
    let label = branch ^ sp.Span.name in
    let share =
      match parent_dur with
      | Some d when d > 0.0 -> Printf.sprintf " %5.1f%%" (100.0 *. sp.Span.dur_us /. d)
      | Some _ | None -> ""
    in
    let attrs =
      match sp.Span.attrs with
      | [] -> ""
      | attrs ->
        "  " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
    in
    Buffer.add_string buf
      (Printf.sprintf "%-48s %9s%s%s\n" label (fmt_dur sp.Span.dur_us) share attrs);
    let n = List.length sp.Span.children in
    List.iteri
      (fun i c ->
        go (Some child_prefix) ~parent_dur:(Some sp.Span.dur_us) c ~is_last:(i = n - 1))
      sp.Span.children
  in
  let n = List.length spans in
  List.iteri (fun i sp -> go None ~parent_dur:None sp ~is_last:(i = n - 1)) spans;
  Buffer.contents buf
