(** The crash matrix: every scenario × crash boundary × adversarial image,
    plus the schedule sweeps, behind [smoke] (CI) and [deep] (scheduled
    run) presets. *)

type preset = {
  label : string;
  map_ops : int;
  queue_ops : int;
  seeds : (int * int) list;  (** (sched_seed, mem_seed) pairs *)
  max_images : int;  (** adversarial-image cap per crash point *)
  sched_seeds : int list;
  sched_delays : float list;
  sched_stride : int;  (** every n-th sync point gets a preemption *)
  fault_seeds : int list;  (** media-fault plans layered per crash image *)
}

val smoke : preset
val deep : preset

val campaign : Report.witness Obs.Cx.campaign
(** The [# crashmatrix] campaign over every scenario id
    {!Scenarios.find} or {!Irscenarios.find} resolves — what
    [respct_experiments replay] runs. *)

val entries : ?filter:string -> Scenarios.dimension -> Scenarios.entry list
(** The registry entries of one dimension, in registry order; [filter]
    keeps those whose id starts with the given prefix. *)

(** Each run below checks one dimension; [record] (default: nothing)
    receives every exploration's outcome, in the order the rows print. *)

val run :
  ?filter:string ->
  ?schedules:bool ->
  ?record:(Explore.outcome -> unit) ->
  preset ->
  Format.formatter ->
  bool
(** Explore every (filtered) {!Scenarios.Ablation} entry under PCSO and
    every seed pair, print one row per outcome with shrunk counterexamples
    for failures, then run the schedule sweeps unless [schedules] is
    false. Returns whether everything passed. *)

(** The expectation checks: every (filtered) entry of one dimension runs
    at the preset's first seed pair and must meet its
    {!Scenarios.expect}; expected breaks are shrunk and replayed. Each
    returns whether every expectation held. *)

val ablation_check :
  ?filter:string ->
  ?schedules:bool ->
  ?record:(Explore.outcome -> unit) ->
  preset ->
  Format.formatter ->
  bool
(** {!Scenarios.Ablation} under word-granular write-back: PCSO-reliant
    systems (ResPCT-InCLL, Quadra) must report violations,
    explicitly-flushing systems (Clobber, SOFT, FriedmanQueue) and the
    buffered epoch systems must not. *)

val faults_check :
  ?filter:string ->
  ?schedules:bool ->
  ?record:(Explore.outcome -> unit) ->
  preset ->
  Format.formatter ->
  bool
(** {!Scenarios.Faults}: every crash image is re-checked with each of the
    preset's deterministic media-fault plans installed. Integrity-mode
    recovery must detect or exactly repair every fault; the planted
    no-verification mutant must produce violations. *)

val pipeline_check :
  ?filter:string ->
  ?schedules:bool ->
  ?record:(Explore.outcome -> unit) ->
  preset ->
  Format.formatter ->
  bool
(** {!Scenarios.Pipeline}: pipeline-mode worlds must recover at every
    crash boundary (including mid-overlap windows: during the background
    walk, between the commit-slot stores, at post-advance restart
    points), the {!Scenarios.Detects} entry also under the preset's
    media-fault plans; the planted overlap-protocol mutants must produce
    violations. Closes with the pipelined schedule sweep unless
    [schedules] is false. *)
