(* Source locations (1-based line/column), carried from the CUDA frontend
   down to IR ops so analyses can report `file:line:col` diagnostics.  The
   file name is not stored per-location: a module comes from a single
   translation unit, so printers take it as a parameter. *)

type t =
  { line : int
  ; col : int
  }

let v ~line ~col = { line; col }

let is_known l = l.line > 0

let to_string l =
  if is_known l then Printf.sprintf "%d:%d" l.line l.col else "?:?"

let compare (a : t) (b : t) =
  match Int.compare a.line b.line with
  | 0 -> Int.compare a.col b.col
  | c -> c
