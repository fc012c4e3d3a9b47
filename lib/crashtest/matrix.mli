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

type dimension =
  | Matrix  (** {!Scenarios.Ablation} under PCSO: every entry must recover *)
  | Ablation_check
      (** {!Scenarios.Ablation} under word-granular write-back:
          PCSO-reliant systems (ResPCT-InCLL, Quadra) must report
          violations, explicitly-flushing systems (Clobber, SOFT,
          FriedmanQueue) and the buffered epoch systems must not *)
  | Faults_check
      (** {!Scenarios.Faults}: every crash image is re-checked with each
          of the preset's deterministic media-fault plans installed.
          Integrity-mode recovery must detect or exactly repair every
          fault; the planted no-verification mutant must produce
          violations. *)
  | Pipeline_check
      (** {!Scenarios.Pipeline}: pipeline-mode worlds must recover at
          every crash boundary (including mid-overlap windows: during the
          background walk, between the commit-slot stores, at
          post-advance restart points), the {!Scenarios.Detects} entry
          also under the preset's media-fault plans; the planted
          overlap-protocol mutants must produce violations. *)

val jobs :
  ?filter:string ->
  ?schedules:bool ->
  dimension ->
  preset ->
  (Obs.Jobs.campaign, string) result
(** The dimension as a job list: one job per registry entry of the
    dimension, in registry order, whose id starts with [filter] — per seed
    pair for [Matrix], at the preset's first seed pair for the checks,
    which require each entry to meet its {!Scenarios.expect} — then one
    job per schedule spec of the dimension's sweeps ([Matrix]: the
    classic set, [Pipeline_check]: the pipelined one) unless [schedules]
    is false. A job's text is the world's row, with shrunk and replayed
    counterexamples for its failures; its JSON is the world's
    {!Report.outcome_json} row. The closing step frames the rows with
    the dimension's title and summary and returns the
    [respct-crashmatrix/v1] document, whose [dimension] field is
    [matrix], [ablation-check], [faults] or [pipeline]. [Error] names the
    dimension's ids when [filter] matches none. *)
