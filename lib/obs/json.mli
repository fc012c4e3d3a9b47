(* Minimal JSON document type with a deterministic printer and a small
   reader.

   Hand-rolled on purpose: the project depends on no JSON library, and
   determinism of the output bytes is a test requirement (two same-seed
   runs must serialise to identical files). Objects are association lists,
   so field order is exactly construction order — never Hashtbl iteration
   order. The reader exists for the one consumer in the repository: the
   perf harness loading a committed benchmark baseline back for
   [perf --compare]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Floats print with enough digits to round-trip but without the noise of
   %.17g; NaN/inf are not valid JSON so they degrade to null. *)
val to_string : t -> string

(* Indented variant for files meant to be read by humans and diffed. *)
val to_string_pretty : t -> string

(* Writes [to_string_pretty]. *)
val to_file : string -> t -> unit

(* Reader: a plain recursive-descent parser over the subset of JSON the
   printers above emit (which is all of JSON minus exotic number forms).
   Errors carry the byte offset so a truncated baseline file is
   diagnosable. *)
val of_string : string -> (t, string) result
val of_file : string -> (t, string) result

(* Field access helpers for the reader's consumers. *)
val member : string -> t -> t option

(* [Int] and [Float] as a float. *)
val to_float_opt : t -> float option
