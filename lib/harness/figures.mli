(* The paper's evaluation (section 5) as one registry. Each figure and table
   is defined here once: its title, its header, its rows computed from the
   measured points and, for Figures 8-12, the JSON experiment that carries
   those same points in full. The ASCII table and the JSON are two views of
   one run. `respct_experiments figures` prints a selection; the harness
   tests run every entry at miniature scales.

   Throughput is virtual-time Mops/s (see DESIGN.md on scaling). *)

type table = {
  title : string;
  header : string list;
  rows : (string * string list) list;
      (** (label, cells): one cell per column after the first *)
}

type setup = {
  scale : Experiments.scale;
  apps : App_experiments.app_scale;
  root : string;  (** repository checkout whose sources Table 3 counts *)
}

(* A simulation scale with its application scale, run from the checkout. *)
val setup : Experiments.scale -> setup

type figure = {
  name : string;  (** fig8 .. fig14, tab2, tab3 *)
  run : setup -> table list * Obs.Json.t option;
      (** the tables to print, and the experiment for the --json document *)
}

(* Every figure and table, in the paper's order. *)
val all : figure list

val print : table -> unit

(* (buckets, [recovery ms; registry entries; rolled back]) per recovery
   point; `respct_experiments recover` prints the same rows. *)
val fig12_rows : Obs.Run.point list -> (string * string list) list
