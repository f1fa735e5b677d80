type t = {
  name : string;
  mutable attrs : (string * string) list;  (* reverse insertion order *)
  start_us : float;
  mutable dur_us : float;
  mutable children : t list;  (* reverse execution order *)
}

type recorder = {
  mutable roots : t list;  (* reverse execution order *)
  mutable stack : t list;  (* innermost first *)
}

(* The recorder is domain-local: each domain records into its own
   structure, and fork-join runners stitch worker spans back into the
   spawning domain's recorder with [capture]/[graft]. *)
let active : recorder option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_active () = Domain.DLS.get active

let set_active r = Domain.DLS.set active r

let enabled () = match get_active () with None -> false | Some _ -> true

let start_recording () = set_active (Some { roots = []; stack = [] })

(* Recording accumulates lists in reverse; normalize once at the end. *)
let rec normalize sp =
  sp.attrs <- List.rev sp.attrs;
  sp.children <- List.rev sp.children;
  List.iter normalize sp.children

(* Close open spans and return the raw roots in execution order, with
   attrs/children still in reverse order (normalization pending). *)
let drain_raw r =
  let now = Clock.now_us () in
  List.iter (fun sp -> sp.dur_us <- now -. sp.start_us) r.stack;
  List.rev r.roots

let finish_recording () =
  match get_active () with
  | None -> []
  | Some r ->
    set_active None;
    let roots = drain_raw r in
    List.iter normalize roots;
    roots

let capture f =
  let saved = get_active () in
  set_active (Some { roots = []; stack = [] });
  match f () with
  | v ->
    let spans =
      match get_active () with None -> [] | Some r -> drain_raw r
    in
    set_active saved;
    (v, spans)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    set_active saved;
    Printexc.raise_with_backtrace e bt

let graft spans =
  match (get_active (), spans) with
  | None, _ | _, [] -> ()
  | Some r, spans ->
    (* The recorder stores children/roots in reverse execution order, so
       the captured spans (execution order) are reversed and prepended:
       the final normalization pass un-reverses everything exactly
       once. *)
    let rev = List.rev spans in
    (match r.stack with
    | parent :: _ -> parent.children <- rev @ parent.children
    | [] -> r.roots <- rev @ r.roots)

let with_ ?(attrs = []) ~name f =
  match get_active () with
  | None -> f ()
  | Some r ->
    let sp =
      { name; attrs = List.rev attrs; start_us = Clock.now_us (); dur_us = 0.0;
        children = [] }
    in
    (match r.stack with
    | parent :: _ -> parent.children <- sp :: parent.children
    | [] -> r.roots <- sp :: r.roots);
    r.stack <- sp :: r.stack;
    Fun.protect
      ~finally:(fun () ->
        sp.dur_us <- Clock.now_us () -. sp.start_us;
        (match r.stack with
        | top :: rest when top == sp -> r.stack <- rest
        | _ -> ()))
      f

let attr_str k v =
  match get_active () with
  | Some { stack = sp :: _; _ } -> sp.attrs <- (k, v) :: sp.attrs
  | Some { stack = []; _ } | None -> ()

let attr_int k v =
  match get_active () with
  | Some { stack = _ :: _; _ } -> attr_str k (string_of_int v)
  | Some { stack = []; _ } | None -> ()

let attr_float k v =
  match get_active () with
  | Some { stack = _ :: _; _ } -> attr_str k (Printf.sprintf "%g" v)
  | Some { stack = []; _ } | None -> ()
