(** Rendering of explorer results, and the crashmatrix counterexample
    codec: a shrunk failure prints as one [# crashmatrix ...] line that
    [respct_experiments replay] re-runs at the exact crash point. *)

val pp_failure : Explore.failure Fmt.t

type builder =
  sched_seed:int -> mem_seed:int -> pcso:bool -> n_ops:int -> Explore.scenario

type point = {
  crash_index : int;
  variant : Explore.variant;
  fault_seed : int option;  (** media-fault seed layered on the image *)
}

type witness = {
  scenario : string;  (** scenario id, resolved by the campaign's [find] *)
  sched_seed : int;
  mem_seed : int;
  pcso : bool;
  n_ops : int;  (** the builder's op-count argument *)
  point : point option;
      (** [None] (a shrink candidate): explore for the first failing
          point; a witness without one does not print a replayable line *)
}

val witness_of : n_ops:int -> Explore.scenario -> Explore.failure -> witness
(** The failure as a witness of the scenario that [find] builds with
    [n_ops] — the builder's argument, which the scenario's own [n_ops]
    need not equal (the pipeline mutants double it). *)

val campaign :
  ?fault_seeds:int list ->
  find:(string -> builder option) ->
  unit ->
  witness Obs.Cx.campaign
(** Tag [crashmatrix]; keys [scenario ops sched-seed mem-seed pcso
    crash-index image \[fault-seed\]]. Candidates are smaller op counts,
    each explored with [fault_seeds] (default none); a witness with a
    point replays it with {!Explore.check_point}. [find] resolves
    scenario ids when decoding and checking. *)

val pp_counterexample : witness Obs.Cx.shrunk Fmt.t
val pp_outcome : Explore.outcome Fmt.t

val outcome_json : Explore.outcome -> Obs.Json.t
(** One explored world as a row of the [crashmatrix --json] document: its
    id, seeds, boundaries, images (enumerated), recoveries (run),
    truncated images and failure count. *)
