module Flat = Netlist.Flat

type kind =
  | Scope of int
  | Macro_cell of int
  | Glue of int

type node = {
  id : int;
  kind : kind;
  parent : int;
  children : int list;
  area : float;
  macro_count : int;
  name : string;
}

type t = {
  flat : Flat.t;
  nodes : node array;
  root : int;
  scope_ht : int array;  (* HT id of each scope *)
  glue_ht : int array;  (* HT glue-leaf id per scope, -1 if none *)
  macro_ht : (int, int) Hashtbl.t;  (* flat macro node id -> HT id *)
}

let build (flat : Flat.t) =
  let nscopes = Array.length flat.Flat.scopes in
  (* First pass: count HT nodes. Scope ids are preorder (parents first),
     which lets aggregates be computed by a reverse scan. *)
  let acc : node list ref = ref [] in
  let next = ref 0 in
  let scope_ht = Array.make nscopes (-1) in
  let glue_ht = Array.make nscopes (-1) in
  let macro_ht = Hashtbl.create 64 in
  let fresh kind parent name =
    let id = !next in
    incr next;
    acc := { id; kind; parent; children = []; area = 0.0; macro_count = 0; name } :: !acc;
    id
  in
  (* Create scope nodes in scope order so parents exist before children. *)
  Array.iter
    (fun (s : Flat.scope) ->
      let parent = if s.Flat.sparent < 0 then -1 else scope_ht.(s.Flat.sparent) in
      let name = if s.Flat.spath = "" then "<top>" else s.Flat.spath in
      scope_ht.(s.Flat.sid) <- fresh (Scope s.Flat.sid) parent name)
    flat.Flat.scopes;
  (* Macro leaves and glue leaves. *)
  Array.iter
    (fun (s : Flat.scope) ->
      let ht_parent = scope_ht.(s.Flat.sid) in
      let std_area = ref 0.0 in
      List.iter
        (fun cid ->
          let c = flat.Flat.nodes.(cid) in
          if Flat.is_macro c then begin
            let id = fresh (Macro_cell cid) ht_parent c.Flat.path in
            Hashtbl.replace macro_ht cid id
          end
          else std_area := !std_area +. c.Flat.area)
        s.Flat.scells;
      if !std_area > 0.0 then
        glue_ht.(s.Flat.sid) <-
          fresh (Glue s.Flat.sid) ht_parent (Util.Names.join s.Flat.spath "<cells>"))
    flat.Flat.scopes;
  let nodes = Array.of_list (List.rev !acc) in
  (* Children lists. *)
  let child_lists = Array.make (Array.length nodes) [] in
  Array.iter
    (fun n -> if n.parent >= 0 then child_lists.(n.parent) <- n.id :: child_lists.(n.parent))
    nodes;
  (* Aggregates, leaves first. Node ids are topological (parents first). *)
  let area = Array.make (Array.length nodes) 0.0 in
  let mcount = Array.make (Array.length nodes) 0 in
  for id = Array.length nodes - 1 downto 0 do
    let self_area, self_macros =
      match nodes.(id).kind with
      | Macro_cell cid -> (flat.Flat.nodes.(cid).Flat.area, 1)
      | Glue sid ->
        let a =
          List.fold_left
            (fun s cid ->
              let c = flat.Flat.nodes.(cid) in
              if Flat.is_macro c then s else s +. c.Flat.area)
            0.0 flat.Flat.scopes.(sid).Flat.scells
        in
        (a, 0)
      | Scope _ -> (0.0, 0)
    in
    let a, m =
      List.fold_left
        (fun (a, m) c -> (a +. area.(c), m + mcount.(c)))
        (self_area, self_macros) child_lists.(id)
    in
    area.(id) <- a;
    mcount.(id) <- m
  done;
  let nodes =
    Array.map
      (fun n ->
        { n with
          children = List.rev child_lists.(n.id);
          area = area.(n.id);
          macro_count = mcount.(n.id) })
      nodes
  in
  { flat; nodes; root = scope_ht.(0); scope_ht; glue_ht; macro_ht }

let flat t = t.flat

let root t = t.root

let node t id = t.nodes.(id)

let node_count t = Array.length t.nodes

let area t id = t.nodes.(id).area

let macro_count t id = t.nodes.(id).macro_count

let children t id = t.nodes.(id).children

let rec fold_subtree t id f acc =
  let acc = f acc t.nodes.(id) in
  List.fold_left (fun acc c -> fold_subtree t c f acc) acc t.nodes.(id).children

let macros_below t id =
  fold_subtree t id
    (fun acc n -> match n.kind with Macro_cell cid -> cid :: acc | Scope _ | Glue _ -> acc)
    []
  |> List.sort compare

let cells_below t id =
  fold_subtree t id
    (fun acc n ->
      match n.kind with
      | Macro_cell cid -> cid :: acc
      | Glue sid ->
        List.fold_left
          (fun acc cid ->
            if Flat.is_macro t.flat.Flat.nodes.(cid) then acc else cid :: acc)
          acc t.flat.Flat.scopes.(sid).Flat.scells
      | Scope _ -> acc)
    []
  |> List.sort compare

let ht_node_of_flat t cid =
  let c = t.flat.Flat.nodes.(cid) in
  if Flat.is_port c then invalid_arg "ht_node_of_flat: ports are not in HT";
  if Flat.is_macro c then Hashtbl.find t.macro_ht cid
  else begin
    let g = t.glue_ht.(c.Flat.scope) in
    assert (g >= 0);
    g
  end

let rec is_ancestor t ~ancestor id =
  if id < 0 then false
  else if id = ancestor then true
  else is_ancestor t ~ancestor t.nodes.(id).parent

let depth t id =
  let rec go id d = if t.nodes.(id).parent < 0 then d else go t.nodes.(id).parent (d + 1) in
  go id 0
