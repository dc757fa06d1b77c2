(* Minimal JSON emitter (see json.mli). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec pp ppf = function
  | Null -> Fmt.pf ppf "null"
  | Bool b -> Fmt.pf ppf "%b" b
  | Int i -> Fmt.pf ppf "%d" i
  | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
  | List l -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ",") pp) l
  | Obj kvs ->
    Fmt.pf ppf "{%a}"
      Fmt.(
        list ~sep:(any ",") (fun ppf (k, v) ->
            pf ppf "\"%s\":%a" (escape k) pp v))
      kvs
