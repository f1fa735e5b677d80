type node_kind =
  | Kmacro of Design.macro_info
  | Kflop
  | Kcomb
  | Kport of Design.direction

type node = {
  id : int;
  path : string;
  base : string;
  kind : node_kind;
  area : float;
  scope : int;
}

type scope = {
  sid : int;
  spath : string;
  smodule : string;
  sparent : int;
  mutable schildren : int list;
  mutable scells : int list;
}

type pin_index = {
  off : int array;
  first_sink : int array;
  ids : int array;
}

type t = {
  design_name : string;
  nodes : node array;
  scopes : scope array;
  gnet : Graphlib.Digraph.t;
  net_count : int;
  net_pins : (int array * int array) array;
  pin_index : pin_index;
}

(* Growable accumulators used during elaboration. *)
type builder = {
  mutable bnodes : node list;  (* reversed *)
  mutable nnodes : int;
  mutable bscopes : scope list;  (* reversed *)
  mutable nscopes : int;
  mutable nnets : int;
  (* indexed by net id, growing with [nnets]: reversed driver / sink
     node id lists *)
  mutable drivers : int list array;
  mutable sinks : int list array;
}

let fresh_net b =
  let id = b.nnets in
  let cap = Array.length b.drivers in
  if id = cap then begin
    let grow a = Array.append a (Array.make (max 1024 cap) []) in
    b.drivers <- grow b.drivers;
    b.sinks <- grow b.sinks
  end;
  b.nnets <- id + 1;
  id

let add_driver b net node = b.drivers.(net) <- node :: b.drivers.(net)

let add_sink b net node = b.sinks.(net) <- node :: b.sinks.(net)

let add_node b ~path ~base ~kind ~area ~scope =
  let id = b.nnodes in
  b.nnodes <- id + 1;
  b.bnodes <- { id; path; base; kind; area; scope } :: b.bnodes;
  id

let add_scope b ~spath ~smodule ~sparent =
  let sid = b.nscopes in
  b.nscopes <- sid + 1;
  let s = { sid; spath; smodule; sparent; schildren = []; scells = [] } in
  b.bscopes <- s :: b.bscopes;
  s

let pin_index_of net_pins =
  let listed = ref 0 and total = ref 0 in
  Array.iter
    (fun (ds, ss) ->
      let np = Array.length ds + Array.length ss in
      if np >= 2 then begin
        incr listed;
        total := !total + np
      end)
    net_pins;
  let off = Array.make (!listed + 1) 0 in
  let first_sink = Array.make !listed 0 in
  let ids = Array.make !total 0 in
  let k = ref 0 in
  Array.iter
    (fun (ds, ss) ->
      let nd = Array.length ds and ns = Array.length ss in
      if nd + ns >= 2 then begin
        let o = off.(!k) in
        Array.blit ds 0 ids o nd;
        Array.blit ss 0 ids (o + nd) ns;
        first_sink.(!k) <- o + nd;
        off.(!k + 1) <- o + nd + ns;
        incr k
      end)
    net_pins;
  { off; first_sink; ids }

let elaborate_body (d : Design.t) =
  (match Design.validate d with
  | Ok () -> ()
  | Error e -> invalid_arg (Format.asprintf "Flat.elaborate: %a" Design.pp_error e));
  let top =
    match Design.find_module d d.Design.top with
    | Some m -> m
    | None -> assert false
  in
  let b =
    { bnodes = []; nnodes = 0; bscopes = []; nscopes = 0; nnets = 0; drivers = [||];
      sinks = [||] }
  in
  (* env maps local net names of the module being elaborated to global net
     ids. Local nets not bound through ports get fresh ids on first use. *)
  let rec elab_module (m : Design.module_def) ~path ~parent_sid ~(env : (string, int) Hashtbl.t) =
    let scope = add_scope b ~spath:path ~smodule:m.Design.mname ~sparent:parent_sid in
    let net name =
      match Hashtbl.find_opt env name with
      | Some id -> id
      | None ->
        let id = fresh_net b in
        Hashtbl.add env name id;
        id
    in
    List.iter
      (fun (c : Design.cell_decl) ->
        let kind =
          match c.Design.ckind with
          | Design.Macro info -> Kmacro info
          | Design.Flop -> Kflop
          | Design.Comb -> Kcomb
        in
        let cpath = Util.Names.join path c.Design.cname in
        let id = add_node b ~path:cpath ~base:c.Design.cname ~kind
            ~area:c.Design.carea ~scope:scope.sid
        in
        scope.scells <- id :: scope.scells;
        List.iter (fun n -> add_sink b (net n) id) c.Design.cins;
        List.iter (fun n -> add_driver b (net n) id) c.Design.couts)
      m.Design.cells;
    List.iter
      (fun (i : Design.inst_decl) ->
        let child =
          match Design.find_module d i.Design.imodule with
          | Some c -> c
          | None -> assert false
        in
        let child_env = Hashtbl.create 64 in
        List.iter
          (fun (formal, actual) -> Hashtbl.replace child_env formal (net actual))
          i.Design.bindings;
        let child_path = Util.Names.join path i.Design.iname in
        let child_scope = elab_module child ~path:child_path ~parent_sid:scope.sid ~env:child_env in
        scope.schildren <- child_scope.sid :: scope.schildren)
      m.Design.insts;
    scope
  in
  let top_env = Hashtbl.create 64 in
  let top_scope = elab_module top ~path:"" ~parent_sid:(-1) ~env:top_env in
  assert (top_scope.sid = 0);
  (* Top-level ports become P nodes attached to their nets. *)
  List.iter
    (fun (p : Design.port_decl) ->
      let net =
        match Hashtbl.find_opt top_env p.Design.pname with
        | Some id -> id
        | None ->
          let id = fresh_net b in
          Hashtbl.add top_env p.Design.pname id;
          id
      in
      let id = add_node b ~path:p.Design.pname ~base:p.Design.pname
          ~kind:(Kport p.Design.pdir) ~area:0.0 ~scope:0
      in
      match p.Design.pdir with
      | Design.Input -> add_driver b net id
      | Design.Output -> add_sink b net id)
    top.Design.ports;
  let nodes = Array.of_list (List.rev b.bnodes) in
  let scopes = Array.of_list (List.rev b.bscopes) in
  Array.iteri (fun i n -> assert (n.id = i)) nodes;
  (* Scope child/cell lists were accumulated in reverse. *)
  Array.iter
    (fun s ->
      s.schildren <- List.rev s.schildren;
      s.scells <- List.rev s.scells)
    scopes;
  let gnet = Graphlib.Digraph.create (Array.length nodes) in
  let net_pins =
    Array.init b.nnets (fun net ->
        (Array.of_list (List.rev b.drivers.(net)), Array.of_list (List.rev b.sinks.(net))))
  in
  Array.iter
    (fun (ds, ss) ->
      Array.iter (fun u -> Array.iter (fun v -> Graphlib.Digraph.add_edge gnet u v) ss) ds)
    net_pins;
  { design_name = d.Design.top; nodes; scopes; gnet; net_count = b.nnets; net_pins;
    pin_index = pin_index_of net_pins }

let elaborate (d : Design.t) =
  Obs.Span.with_ ~name:"netlist.elaborate" (fun () ->
      let t = elaborate_body d in
      Obs.Span.attr_str "design" t.design_name;
      Obs.Span.attr_int "nodes" (Array.length t.nodes);
      Obs.Span.attr_int "nets" t.net_count;
      Obs.Perf.add Obs.Perf.netlist_elaborations 1;
      Obs.Metrics.gauge "netlist.nodes" (float_of_int (Array.length t.nodes));
      Obs.Metrics.gauge "netlist.nets" (float_of_int t.net_count);
      t)

let is_macro n = match n.kind with Kmacro _ -> true | Kflop | Kcomb | Kport _ -> false
let is_flop n = match n.kind with Kflop -> true | Kmacro _ | Kcomb | Kport _ -> false
let is_comb n = match n.kind with Kcomb -> true | Kmacro _ | Kflop | Kport _ -> false
let is_port n = match n.kind with Kport _ -> true | Kmacro _ | Kflop | Kcomb -> false

let macros t = Array.to_list t.nodes |> List.filter is_macro

let ports t = Array.to_list t.nodes |> List.filter is_port

let macro_count t = Array.fold_left (fun acc n -> if is_macro n then acc + 1 else acc) 0 t.nodes

let cell_count t =
  Array.fold_left (fun acc n -> if is_port n then acc else acc + 1) 0 t.nodes

let total_cell_area t =
  Array.fold_left (fun acc n -> if is_port n then acc else acc +. n.area) 0.0 t.nodes

let scope_of_node t id = t.scopes.(t.nodes.(id).scope)

let pp_summary ppf t =
  let count p = Array.fold_left (fun acc n -> if p n then acc + 1 else acc) 0 t.nodes in
  Format.fprintf ppf
    "design %s: %d nodes (%d macros, %d flops, %d comb, %d ports), %d nets, %d edges, %d scopes"
    t.design_name (Array.length t.nodes) (count is_macro) (count is_flop) (count is_comb)
    (count is_port) t.net_count
    (Graphlib.Digraph.edge_count t.gnet)
    (Array.length t.scopes)
