(* Scratch directories for the cases that write to disk: [with_dir
   prefix f] passes [f] a fresh path under the system temp dir (not yet
   created, so a checkpoint session or store may create it) and removes
   it, with everything in it, when [f] returns or raises. *)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then remove dir) (fun () -> f dir)
