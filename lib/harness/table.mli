(* Plain-text rendering of result tables and series, in the shape of the
   paper's figures (rows = systems, columns = the swept parameter). *)

(* [print ~title ~header rows]: rows are (label, cell list). One table on
   [out] (default stdout): the title line, then the header and the rows,
   each column as wide as its widest cell; short rows are padded with
   empty cells. *)
val print :
  ?out:Format.formatter ->
  title:string ->
  header:string list ->
  (string * string list) list ->
  unit

(* Cell formats, two decimals: Mops/s, a ratio, and nanoseconds as
   milliseconds. *)
val fmt_mops : float -> string
val fmt_ratio : float -> string
val fmt_ms : float -> string
