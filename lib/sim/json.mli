(** A minimal JSON document type and compact printer — the one escaper
    behind every machine-readable output ([daec stats --json],
    [daec leak --json], the bench harness's result file and the Perfetto
    trace export). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal, without the surrounding quotes:
    double quote and backslash are backslash-escaped, newline and tab use
    their short forms, and every other control byte below 0x20 becomes a
    four-digit [u] escape. *)

val pp : t Fmt.t
(** Compact rendering: no whitespace between tokens, object members in
    list order. *)
