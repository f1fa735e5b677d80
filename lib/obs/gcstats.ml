type snapshot = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

let snapshot () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words }

let allocated_words s = s.minor_words +. s.major_words -. s.promoted_words

let record ?(prefix = "gc") t s =
  Perf.set_gauge t (prefix ^ ".minor_words") s.minor_words;
  Perf.set_gauge t (prefix ^ ".promoted_words") s.promoted_words;
  Perf.set_gauge t (prefix ^ ".major_words") s.major_words;
  Perf.set_gauge t (prefix ^ ".allocated_words") (allocated_words s);
  Perf.set_gauge t (prefix ^ ".minor_collections") (float_of_int s.minor_collections);
  Perf.set_gauge t (prefix ^ ".major_collections") (float_of_int s.major_collections);
  Perf.set_gauge t (prefix ^ ".compactions") (float_of_int s.compactions);
  Perf.set_gauge t (prefix ^ ".heap_words") (float_of_int s.heap_words);
  Perf.set_gauge t (prefix ^ ".top_heap_words") (float_of_int s.top_heap_words)

let gauges ?prefix s = if Perf.enabled () then record ?prefix (Perf.ambient ()) s

let to_json s =
  Jsonx.Obj
    [ ("minor_words", Jsonx.Float s.minor_words);
      ("promoted_words", Jsonx.Float s.promoted_words);
      ("major_words", Jsonx.Float s.major_words);
      ("allocated_words", Jsonx.Float (allocated_words s));
      ("minor_collections", Jsonx.Int s.minor_collections);
      ("major_collections", Jsonx.Int s.major_collections);
      ("compactions", Jsonx.Int s.compactions);
      ("heap_words", Jsonx.Int s.heap_words);
      ("top_heap_words", Jsonx.Int s.top_heap_words) ]

open Jsonx.Syntax

(* allocated_words is derived: type-checked, not read back. *)
let of_json j =
  let count name = Jsonx.field_or name ~default:0 Jsonx.int j in
  let* minor_words = Jsonx.field "minor_words" Jsonx.float j in
  let* promoted_words = Jsonx.field "promoted_words" Jsonx.float j in
  let* major_words = Jsonx.field "major_words" Jsonx.float j in
  let* _ = Jsonx.field_opt "allocated_words" Jsonx.float j in
  let* minor_collections = count "minor_collections" in
  let* major_collections = count "major_collections" in
  let* compactions = count "compactions" in
  let* heap_words = count "heap_words" in
  let* top_heap_words = count "top_heap_words" in
  Ok
    { minor_words;
      promoted_words;
      major_words;
      minor_collections;
      major_collections;
      compactions;
      heap_words;
      top_heap_words }
