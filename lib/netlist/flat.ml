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

(* A growable int array. *)
type ivec = { mutable data : int array; mutable len : int }

let push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (max 1024 (2 * v.len)) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let contents v = Array.sub v.data 0 v.len

(* Growable accumulators used during elaboration. *)
type builder = {
  mutable bnodes : node list;  (* reversed *)
  mutable nnodes : int;
  mutable bscopes : scope list;  (* reversed *)
  mutable nscopes : int;
  mutable nnets : int;
  (* one entry per pin, in elaboration order: its slot, [2 * net] for a
     driver and [2 * net + 1] for a sink, and its node id *)
  pin_slot : ivec;
  pin_node : ivec;
}

let fresh_net b =
  let id = b.nnets in
  b.nnets <- id + 1;
  id

let add_driver b net node =
  push b.pin_slot (2 * net);
  push b.pin_node node

let add_sink b net node =
  push b.pin_slot ((2 * net) + 1);
  push b.pin_node node

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

(* The pins grouped by slot: net [k]'s drivers are
   [ids.(first k) .. ids.(mid k - 1)] and its sinks
   [ids.(mid k) .. ids.(first (k + 1) - 1)], each in elaboration order.
   [net_pins], [pin_index] and Gnet's edges are all read off these rows. *)
let nets_of_rows nnets (off, ids) =
  let first k = off.(2 * k) and mid k = off.((2 * k) + 1) in
  let net_pins =
    Array.init nnets (fun k ->
        (Array.sub ids (first k) (mid k - first k), Array.sub ids (mid k) (first (k + 1) - mid k)))
  in
  (* the pin index: the nets with two or more pins, in net order *)
  let listed k = first (k + 1) - first k >= 2 in
  let nlisted = ref 0 and npins = ref 0 and nedges = ref 0 in
  for k = 0 to nnets - 1 do
    if listed k then begin
      incr nlisted;
      npins := !npins + first (k + 1) - first k
    end;
    nedges := !nedges + ((mid k - first k) * (first (k + 1) - mid k))
  done;
  let ioff = Array.make (!nlisted + 1) 0 in
  let first_sink = Array.make !nlisted 0 in
  let iids = Array.make !npins 0 in
  let i = ref 0 in
  for k = 0 to nnets - 1 do
    if listed k then begin
      let o = ioff.(!i) in
      Array.blit ids (first k) iids o (first (k + 1) - first k);
      first_sink.(!i) <- o + mid k - first k;
      ioff.(!i + 1) <- o + first (k + 1) - first k;
      incr i
    end
  done;
  (* Gnet: an edge from every driver to every sink of every net *)
  let src = Array.make !nedges 0 and dst = Array.make !nedges 0 in
  let e = ref 0 in
  for k = 0 to nnets - 1 do
    for p = first k to mid k - 1 do
      for q = mid k to first (k + 1) - 1 do
        src.(!e) <- ids.(p);
        dst.(!e) <- ids.(q);
        incr e
      done
    done
  done;
  (net_pins, { off = ioff; first_sink; ids = iids }, src, dst)

let elaborate_body (d : Design.t) =
  let lookup = Design.module_lookup d in
  let find name =
    match lookup name with
    | Some m -> m
    | None -> invalid_arg ("Flat.elaborate: missing module " ^ name)
  in
  let top = find d.Design.top in
  let b =
    { bnodes = []; nnodes = 0; bscopes = []; nscopes = 0; nnets = 0;
      pin_slot = { data = [||]; len = 0 }; pin_node = { data = [||]; len = 0 } }
  in
  (* the modules on the current instantiation path *)
  let on_path = Hashtbl.create 16 in
  (* env maps local net names of the module being elaborated to global net
     ids. Local nets not bound through ports get fresh ids on first use. *)
  let rec elab_module (m : Design.module_def) ~path ~parent_sid ~(env : (string, int) Hashtbl.t) =
    if Hashtbl.mem on_path m.Design.mname then
      invalid_arg ("Flat.elaborate: recursive instantiation of " ^ m.Design.mname);
    Hashtbl.add on_path m.Design.mname ();
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
        let child = find i.Design.imodule in
        let child_env = Hashtbl.create 64 in
        List.iter
          (fun (formal, actual) -> Hashtbl.replace child_env formal (net actual))
          i.Design.bindings;
        let child_path = Util.Names.join path i.Design.iname in
        let child_scope = elab_module child ~path:child_path ~parent_sid:scope.sid ~env:child_env in
        scope.schildren <- child_scope.sid :: scope.schildren)
      m.Design.insts;
    Hashtbl.remove on_path m.Design.mname;
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
  let rows =
    Graphlib.Digraph.rows (2 * b.nnets) ~key:(contents b.pin_slot) ~value:(contents b.pin_node)
  in
  let net_pins, pin_index, src, dst = nets_of_rows b.nnets rows in
  let gnet = Graphlib.Digraph.of_edges (Array.length nodes) ~src ~dst in
  { design_name = d.Design.top; nodes; scopes; gnet; net_count = b.nnets; net_pins; pin_index }

let elaborate (d : Design.t) =
  Obs.Span.with_ ~name:"netlist.elaborate" (fun () ->
      let t = elaborate_body d in
      Obs.Span.attr_str "design" t.design_name;
      Obs.Span.attr_int "nodes" (Array.length t.nodes);
      Obs.Span.attr_int "nets" t.net_count;
      Obs.Perf.add Obs.Perf.netlist_elaborations 1;
      Obs.Perf.gauge "netlist.nodes" (float_of_int (Array.length t.nodes));
      Obs.Perf.gauge "netlist.nets" (float_of_int t.net_count);
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
