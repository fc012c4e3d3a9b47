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

val run :
  ?pcso:bool ->
  ?filter:string ->
  ?schedules:bool ->
  preset ->
  Format.formatter ->
  bool
(** Explore every (filtered) scenario under every seed pair, print one row
    per outcome with shrunk counterexamples for failures, then run the
    schedule sweeps. Returns whether everything passed. [filter] keeps
    scenarios whose id starts with the given prefix. *)

val ablation_check : ?filter:string -> preset -> Format.formatter -> bool
(** Re-run the matrix under word-granular write-back and check the
    asymmetry: PCSO-reliant systems (ResPCT-InCLL, Quadra) must report
    violations, explicitly-flushing systems (Clobber, SOFT, FriedmanQueue)
    and the buffered epoch systems must not. Returns whether every
    expectation held. *)

val pipeline_check : ?filter:string -> preset -> Format.formatter -> bool
(** Run the pipelined-checkpointing dimension over
    {!Scenarios.pipeline_scenarios}: pipeline-mode worlds must recover at
    every crash boundary (including mid-overlap windows: during the
    background walk, between the commit-slot stores, at post-advance
    restart points), the integrity entry additionally under the preset's
    media-fault plans; the planted overlap-protocol mutants must produce
    violations, which are shrunk and replayed. Closes with the pipelined
    schedule sweep. Returns whether every expectation held. *)

val faults_check : ?filter:string -> preset -> Format.formatter -> bool
(** Run the fault dimension over {!Scenarios.fault_scenarios}: every crash
    image is re-checked with each of the preset's deterministic media-fault
    plans installed. Integrity-mode recovery must detect or exactly repair
    every fault (zero violations); the planted no-verification mutant must
    produce violations, which are shrunk and replayed. Returns whether both
    directions held. *)
