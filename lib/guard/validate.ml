module D = Netlist.Design
module Flat = Netlist.Flat
module Rect = Geom.Rect

type repaired = { design : D.t; diags : Diag.t list; repairs : int }

let stage = "validate"

let errors diags = List.filter Diag.is_error diags

(* Accumulator for diagnostics + repair count. *)
type acc = { mutable ds : Diag.t list; mutable repairs : int }

let warn acc ~code fmt =
  Printf.ksprintf
    (fun message -> acc.ds <- Diag.warning ~code ~stage message :: acc.ds)
    fmt

let err acc ~code fmt =
  Printf.ksprintf
    (fun message -> acc.ds <- Diag.error ~code ~stage message :: acc.ds)
    fmt

let repaired_warn acc ~code fmt =
  acc.repairs <- acc.repairs + 1;
  warn acc ~code fmt

let finite_pos f = Float.is_finite f && f > 0.0

(* Drop later duplicates of a keyed list, reporting each drop. *)
let dedup ~key ~report items =
  let seen = Hashtbl.create (List.length items) in
  List.filter
    (fun item ->
      let k = key item in
      if Hashtbl.mem seen k then begin
        report item;
        false
      end
      else begin
        Hashtbl.add seen k ();
        true
      end)
    items

let check_cell acc ~mname (c : D.cell_decl) =
  match c.D.ckind with
  | D.Macro { D.mw; mh } ->
    if not (finite_pos mw && finite_pos mh) then begin
      (* No sane footprint can be invented for a hard macro. *)
      err acc ~code:"bad-footprint" "macro %s in module %s has footprint %gx%g" c.D.cname
        mname mw mh;
      c
    end
    else if not (Float.is_finite c.D.carea && c.D.carea >= 0.0) then begin
      repaired_warn acc ~code:"bad-area" "macro %s in module %s has area %g; using %g"
        c.D.cname mname c.D.carea (mw *. mh);
      { c with D.carea = mw *. mh }
    end
    else c
  | D.Flop | D.Comb ->
    if not (Float.is_finite c.D.carea && c.D.carea >= 0.0) then begin
      repaired_warn acc ~code:"bad-area" "%s %s in module %s has area %g; using %g"
        (D.kind_name c.D.ckind) c.D.cname mname c.D.carea
        (D.default_area c.D.ckind);
      { c with D.carea = D.default_area c.D.ckind }
    end
    else c

let check_module acc find (m : D.module_def) =
  let ports =
    dedup
      ~key:(fun (p : D.port_decl) -> p.D.pname)
      ~report:(fun (p : D.port_decl) ->
        repaired_warn acc ~code:"dup-port" "dropping duplicate port %s in module %s"
          p.D.pname m.D.mname)
      m.D.ports
  in
  let cells =
    dedup
      ~key:(fun (c : D.cell_decl) -> c.D.cname)
      ~report:(fun (c : D.cell_decl) ->
        repaired_warn acc ~code:"dup-cell" "dropping duplicate cell %s in module %s"
          c.D.cname m.D.mname)
      m.D.cells
  in
  let cells = List.map (check_cell acc ~mname:m.D.mname) cells in
  let insts =
    dedup
      ~key:(fun (i : D.inst_decl) -> i.D.iname)
      ~report:(fun (i : D.inst_decl) ->
        repaired_warn acc ~code:"dup-instance" "dropping duplicate instance %s in module %s"
          i.D.iname m.D.mname)
      m.D.insts
  in
  let insts =
    List.map
      (fun (i : D.inst_decl) ->
        match find i.D.imodule with
        | None ->
          err acc ~code:"missing-module" "instance %s in module %s instantiates unknown module %s"
            i.D.iname m.D.mname i.D.imodule;
          i
        | Some child ->
          let formals = List.map (fun (p : D.port_decl) -> p.D.pname) child.D.ports in
          let bindings =
            List.filter
              (fun (formal, _) ->
                if List.mem formal formals then true
                else begin
                  repaired_warn acc ~code:"dangling-binding"
                    "dropping binding %s => _ of instance %s in module %s: %s has no port %s"
                    formal i.D.iname m.D.mname i.D.imodule formal;
                  false
                end)
              i.D.bindings
          in
          let bindings =
            dedup
              ~key:(fun (formal, _) -> formal)
              ~report:(fun (formal, _) ->
                repaired_warn acc ~code:"dup-binding"
                  "dropping duplicate binding of port %s on instance %s in module %s"
                  formal i.D.iname m.D.mname)
              bindings
          in
          if bindings == i.D.bindings then i else { i with D.bindings })
      insts
  in
  { m with D.ports; cells; insts }

(* Recursion check over the (already deduplicated) module table. *)
let check_recursion acc find top =
  let visiting = Hashtbl.create 16 and done_ = Hashtbl.create 16 in
  let rec dfs name =
    if Hashtbl.mem done_ name || Hashtbl.mem visiting name then begin
      if Hashtbl.mem visiting name then
        err acc ~code:"recursive-module" "recursive instantiation of module %s" name
    end
    else
      match find name with
      | None -> ()  (* reported by check_module *)
      | Some m ->
        Hashtbl.add visiting name ();
        List.iter (fun (i : D.inst_decl) -> dfs i.D.imodule) m.D.insts;
        Hashtbl.remove visiting name;
        Hashtbl.add done_ name ()
  in
  dfs top

let design ?(strict = false) (d : D.t) =
  let acc = { ds = []; repairs = 0 } in
  let module_list = List.map snd d.D.modules in
  let module_list =
    dedup
      ~key:(fun (m : D.module_def) -> m.D.mname)
      ~report:(fun (m : D.module_def) ->
        repaired_warn acc ~code:"dup-module" "dropping duplicate module %s" m.D.mname)
      module_list
  in
  (* Repairs that change lookup results (duplicate modules) must land
     before per-module checks resolve instances. *)
  let d0 = if acc.repairs = 0 then d else D.design ~top:d.D.top ~modules:module_list in
  let find = D.module_lookup d0 in
  if find d.D.top = None then err acc ~code:"missing-module" "top module %s is not defined" d.D.top;
  let repairs_before = acc.repairs in
  let checked = List.map (check_module acc find) module_list in
  check_recursion acc find d.D.top;
  let d1 =
    if acc.repairs = repairs_before && d0 == d then d
    else D.design ~top:d.D.top ~modules:checked
  in
  let diags = List.rev acc.ds in
  let diags = if strict then List.map Diag.escalate diags else diags in
  if errors diags <> [] then Error diags
  else Ok { design = d1; diags; repairs = acc.repairs }

let flat ?(strict = false) ~die (f : Flat.t) =
  let ds = ref [] in
  Array.iter
    (fun (n : Flat.node) ->
      match n.Flat.kind with
      | Flat.Kmacro { D.mw; mh } ->
        let fits w h = w <= die.Rect.w +. 1e-9 && h <= die.Rect.h +. 1e-9 in
        if not (fits mw mh || fits mh mw) then
          ds :=
            Diag.warning ~code:"macro-exceeds-die" ~stage
              (Printf.sprintf "macro %s (%gx%g) does not fit the %gx%g die in any orientation"
                 n.Flat.path mw mh die.Rect.w die.Rect.h)
            :: !ds
      | Flat.Kflop | Flat.Kcomb | Flat.Kport _ ->
        if not (Float.is_finite n.Flat.area) then
          ds :=
            Diag.error ~code:"bad-area" ~stage
              (Printf.sprintf "cell %s has non-finite area" n.Flat.path)
            :: !ds)
    f.Flat.nodes;
  if not (finite_pos (Rect.area die)) then
    ds :=
      Diag.error ~code:"bad-die" ~stage
        (Printf.sprintf "die %gx%g has degenerate area" die.Rect.w die.Rect.h)
      :: !ds;
  let diags = List.rev !ds in
  if strict then List.map Diag.escalate diags else diags
