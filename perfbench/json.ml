(* The little JSON the benchmark prints: one object per line. *)

type t =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_buffer b = function
  (* JSON has no NaN or infinity; a ratio over an empty base reads 0. *)
  | Num f when not (Float.is_finite f) -> Buffer.add_string b "0"
  | Num f -> Printf.bprintf b "%.17g" f
  | Int i -> Printf.bprintf b "%d" i
  | Str s -> Printf.bprintf b "\"%s\"" (escape s)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Printf.bprintf b "\"%s\": " (escape k);
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  to_buffer b j;
  Buffer.contents b
