(* Per-layer readings that are not span times: sizes, gains, counts the
   daemon reports. [note] adds one sample (reported as the mean of its
   samples), [set] fixes a value. Domain-safe: the serve clients note
   from two domains. *)

let lock = Mutex.create ()

let tallies : (string, float * int) Hashtbl.t = Hashtbl.create 16

let note name v =
  Mutex.protect lock (fun () ->
      let s, n = Option.value (Hashtbl.find_opt tallies name) ~default:(0.0, 0) in
      Hashtbl.replace tallies name (s +. v, n + 1))

let set name v = Mutex.protect lock (fun () -> Hashtbl.replace tallies name (v, 1))

let mean name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt tallies name with
      | Some (s, n) when n > 0 -> s /. float_of_int n
      | _ -> 0.0)
