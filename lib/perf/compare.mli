(** The exact, two-sided sim gate: a fresh [respct-sim/bench/v2] document
    against a committed baseline. *)

type verdict = {
  v_baseline : Bench.t;
  v_current : Bench.t;
  v_ratio : float;  (** current over baseline [sim_mops] *)
  v_ok : bool;
      (** [ops] equal, and [sim_ns] equal as the document prints it *)
}

type report = { verdicts : verdict list; errors : string list }

val compare : baseline:Obs.Json.t -> current:Obs.Json.t -> report
(** One verdict per baseline benchmark found in [current]. A baseline
    benchmark missing from [current], or a document that does not read
    as v2, is an error; a benchmark only in [current] is new and
    passes. *)

val ok : report -> bool
(** No error, and every verdict ok. *)

val print_report : Format.formatter -> report -> unit
(** One line per error and per verdict, then [perf compare: PASS] or
    [perf compare: FAIL]. *)
