type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render ~header ?aligns rows =
  let ncols = List.length header in
  let aligns =
    match aligns with
    | Some a -> a
    | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) header
  in
  let all = header :: rows in
  let widths =
    List.init ncols (fun c ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row c with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          0 all)
  in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let a = try List.nth aligns c with _ -> Right in
           let w = List.nth widths c in
           pad a w cell)
         row)
  in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row header :: rule :: List.map render_row rows) ^ "\n"

let fmt_f digits v = Printf.sprintf "%.*f" digits v

let section title =
  let bar = String.make (max 8 (String.length title + 8)) '=' in
  Printf.sprintf "\n%s\n=== %s ===\n%s\n" bar title bar
