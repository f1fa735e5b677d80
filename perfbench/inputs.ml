(* Workload inputs, made from the workload seed. The seed feeds the
   circuit generator ([Circuitgen.Gen.params.seed]) and the flow
   ([Config.seed]); the program only ever sees the generated design,
   handed over as HNL text, the way a user hands it a netlist.

   [Hnl.Parser.parse_string] and [Netlist.Flat.elaborate] open their own
   spans; the calls the program does not span outside [Hidap.place] get
   a benchmark span of the same name. Sizes are noted in traced phases
   only (a recorder installed), so the untraced fig1 sweep design of
   place-c1-serial does not mix into them. *)

(* A suite circuit's parameters with the generator seed moved by the
   workload seed, so every seed gives another circuit of the same
   shape and size. *)
let suite_params name ~seed =
  match Circuitgen.Suite.find name with
  | Some c -> { c.params with seed = c.params.seed + (1000 * seed) }
  | None -> invalid_arg ("unknown suite circuit " ^ name)

(* The parameters of [Circuitgen.Suite.fig1_design], with the seed moved
   the same way. *)
let fig1_params ~seed =
  { Circuitgen.Gen.name = "fig1"; seed = 16 + (1000 * seed); n_subsystems = 2;
    units_per_subsystem = 2; n_macros = 16; bus_width = 12; pipe_stages = 1;
    target_cells = 1_500; macro_w = 55.0; macro_h = 40.0; port_arrays = 2;
    cross_links = 0; cell_area = 8.0 }

(* Flow settings: the paper's defaults, with the seed and the job count
   always given (never 0, which would ask the environment). *)
let config ~seed ~jobs = { Hidap.Config.default with seed; jobs }

let print design =
  let text = Obs.Span.with_ ~name:"hnl.print" (fun () -> Hnl.Printer.to_string design) in
  if Obs.Span.enabled () then Layer_notes.note "hnl.bytes" (float_of_int (String.length text));
  text

exception Bad_input of string

let parse text =
  match Hnl.Parser.parse_string text with
  | Ok d -> d
  | Error { line; col; message } ->
    raise (Bad_input (Printf.sprintf "generated HNL does not parse: %d:%d: %s" line col message))

let elaborate design =
  let flat = Netlist.Flat.elaborate design in
  if Obs.Span.enabled () then
    Layer_notes.note "netlist.nodes" (float_of_int (Array.length flat.nodes));
  flat

let seqgraph ~(config : Hidap.Config.t) flat =
  Obs.Span.with_ ~name:"seqgraph.build" (fun () ->
      Seqgraph.build ~bit_threshold:config.bit_threshold flat)

let port_plan gseq ~die =
  Obs.Span.with_ ~name:"port_plan.make" (fun () -> Hidap.Port_plan.make gseq ~die)

(* A design ready for the flow and its evaluation. *)
type design = {
  text : string;  (** the HNL the program was given *)
  flat : Netlist.Flat.t;
  die : Geom.Rect.t;
  gseq : Seqgraph.t;
  ports : Hidap.Port_plan.t;
}

let prepare ~(config : Hidap.Config.t) params =
  let text = print (Circuitgen.Gen.generate params) in
  let flat = elaborate (parse text) in
  let die = Hidap.die_for flat ~config in
  let gseq = seqgraph ~config flat in
  { text; flat; die; gseq; ports = port_plan gseq ~die }

(* [instances] is the floorplan instances a placement of the designs
   annealed, as Obs.Perf counted them. *)
let sizes ?(instances = 0) (ds : design list) =
  let sum f = List.fold_left (fun a d -> a + f d) 0 ds in
  [ ("cells", sum (fun d -> Netlist.Flat.cell_count d.flat));
    ("macros", sum (fun d -> Netlist.Flat.macro_count d.flat));
    ("nets", sum (fun d -> d.flat.net_count));
    ("hnl_bytes", sum (fun d -> String.length d.text));
    ("floorplan_instances", instances) ]
