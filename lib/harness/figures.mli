(* The paper's evaluation (section 5) as one registry. Each figure and table
   is defined here once, as a job list ({!Obs.Jobs}, DESIGN.md section
   17): one job per measured point, and a closing step that builds its
   title, its header, its rows and, for Figures 8-12, the JSON experiment
   that carries those same points in full. The ASCII table and the JSON
   are two views of one run. `respct_experiments figures` prints a
   selection; the harness tests run every entry at miniature scales.

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
  jobs : setup -> (Obs.Run.point, table list * Obs.Json.t option) Obs.Jobs.t;
      (** one job per point (a map or queue point, a crash and recovery
          per Figure 12 size, an application run per Figures 13-14 cell;
          none for the tables); the closing step gives the tables to
          print and the experiment for the --json document *)
}

(* Every figure and table, in the paper's order. *)
val all : figure list

val print : table -> unit

(* The integrity tax: ResPCT with checksum-sealed metadata
   ([Systems.params.integrity]) against the raw representation, Queue
   and HashMap (50% updates), one raw and one sealed point per thread
   count of the sweep (only [threads] when given). Both arms get twice
   [params_for]'s NVMM, so their geometry is the same. The sealing work
   rides the InCLL-update and checkpoint-commit hot paths, so the
   interesting number is the relative throughput delta per workload:
   the table's cells read "sealed/raw (delta%)". The closing step also
   gives the [integrity-off] and [integrity-on] experiments. *)
val integrity :
  ?threads:int ->
  Experiments.scale ->
  (Obs.Run.point, table * Obs.Json.t list) Obs.Jobs.t
