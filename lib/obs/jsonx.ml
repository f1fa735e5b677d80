type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Non-finite floats (degraded or fault-injected runs produce them in
   metrics) have no JSON number syntax; they are emitted as the string
   sentinels below so the document stays standard JSON and the value
   survives a round-trip — [to_float_opt] maps the sentinels back. *)
let nonfinite_repr f =
  if Float.is_nan f then "\"NaN\""
  else if f > 0.0 then "\"Infinity\""
  else "\"-Infinity\""

let float_repr f =
  if not (Float.is_finite f) then None
  else if Float.is_integer f && abs_float f < 1e15 then
    Some (Printf.sprintf "%.0f" f)
  else Some (Printf.sprintf "%.12g" f)

let to_string ?(compact = false) t =
  let buf = Buffer.create 256 in
  let nl indent =
    if not compact then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      Buffer.add_string buf
        (match float_repr f with Some s -> s | None -> nonfinite_repr f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          go (indent + 2) item)
        items;
      nl indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf (if compact then ":" else ": ");
          go (indent + 2) v)
        fields;
      nl indent;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  output_string oc (to_string t);
  output_char oc '\n';
  close_out oc

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ---- parsing ------------------------------------------------------ *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> fail (Printf.sprintf "bad hex digit '%c' in \\u escape" c)
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    (* Encode a code point as UTF-8 bytes, matching how the serializer
       passes non-ASCII bytes through untouched. *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents buf
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let cp = hex4 () in
            if cp >= 0xd800 && cp <= 0xdbff then
              (* High surrogate: combine with the following \uXXXX low
                 surrogate when present, else keep the replacement char. *)
              if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo >= 0xdc00 && lo <= 0xdfff then
                  add_utf8 buf (0x10000 + (((cp - 0xd800) lsl 10) lor (lo - 0xdc00)))
                else fail "invalid low surrogate"
              end
              else fail "lone high surrogate"
            else if cp >= 0xdc00 && cp <= 0xdfff then fail "lone low surrogate"
            else add_utf8 buf cp
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None ->
        (* Integer syntax but out of int range: fall back to float. *)
        (match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> parse contents
  | exception Sys_error msg -> Error msg

(* ---- typed accessors ---------------------------------------------- *)

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | String "NaN" -> Some Float.nan
  | String "Infinity" -> Some Float.infinity
  | String "-Infinity" -> Some Float.neg_infinity
  | _ -> None

(* ---- decoders ----------------------------------------------------- *)

type 'a decoder = t -> ('a, string) result

module Syntax = struct
  let ( let* ) = Result.bind
end

open Syntax

let describe = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Option.value ~default:"a non-finite number" (float_repr f)
  | String s when String.length s <= 40 -> Printf.sprintf "%S" s
  | String _ -> "a string"
  | List l -> Printf.sprintf "an array of %d" (List.length l)
  | Obj _ -> "an object"

let expected what j = Error (Printf.sprintf "expected %s, got %s" what (describe j))

(* An error reads "path: message". A path has no space, so a message
   whose text before its first ':' has none already carries one. *)
let has_path e =
  match String.index_opt e ':' with
  | Some i -> i > 0 && not (String.contains (String.sub e 0 i) ' ')
  | None -> false

let at seg = function
  | Ok _ as ok -> ok
  | Error e when not (has_path e) -> Error (seg ^ ": " ^ e)
  | Error e when e.[0] = '[' -> Error (seg ^ e)
  | Error e -> Error (seg ^ "." ^ e)

let int = function Int i -> Ok i | j -> expected "an integer" j

let float j = match to_float_opt j with Some f -> Ok f | None -> expected "a number" j

let string = function String s -> Ok s | j -> expected "a string" j

let bool = function Bool b -> Ok b | j -> expected "a boolean" j

let enum what of_string j =
  let* s = string j in
  match of_string s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S" what s)

let list d = function
  | List items ->
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest ->
        let* v = at (Printf.sprintf "[%d]" i) (d x) in
        go (i + 1) (v :: acc) rest
    in
    go 0 [] items
  | j -> expected "an array" j

let pair da db = function
  | List [ a; b ] ->
    let* a = at "[0]" (da a) in
    let* b = at "[1]" (db b) in
    Ok (a, b)
  | j -> expected "an array of 2" j

let assoc d = function
  | Obj fields ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, x) :: rest ->
        let* v = at k (d x) in
        go ((k, v) :: acc) rest
    in
    go [] fields
  | j -> expected "an object" j

let field_opt name d = function
  | Obj fields ->
    (match List.assoc_opt name fields with
    | None | Some Null -> Ok None
    | Some v -> at name (Result.map Option.some (d v)))
  | j -> expected "an object" j

let field name d = function
  | Obj fields ->
    (match List.assoc_opt name fields with
    | None -> Error (name ^ ": missing")
    | Some v -> at name (d v))
  | j -> expected "an object" j

let field_or name ~default d j = Result.map (Option.value ~default) (field_opt name d j)
