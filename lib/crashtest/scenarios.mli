(** Crash-test scenarios: one deterministic single-worker world per
    (system, structure) pair, each with the strongest oracle its
    persistence contract supports — last-checkpoint for ResPCT, durable
    linearizability for the flush-per-operation baselines,
    progress/determinism for the buffered epoch systems. One driver builds
    every world; each system supplies only its structure's constructor and
    its oracle. *)

val mem_cfg : mem_seed:int -> pcso:bool -> Simnvm.Memsys.config
(** The small deterministic world every scenario runs in (64 Ki NVMM
    words, no spontaneous evictions — the explorer enumerates the
    eviction adversary itself). *)

val rt_cfg : Respct.Runtime.config
(** ResPCT runtime config of the crash scenarios: 3 µs checkpoint period,
    so short runs cross several epochs. *)

type respct_fault_mode = [ `Off | `Verified | `Noverify ]
(** Recovery flavour of the ResPCT scenarios: plain image + trusting scan,
    integrity image + {!Respct.Recovery.run_verified} (the fault oracle's
    "detected or exact" contract), or the planted mutant — integrity image
    recovered by the trusting scan, which injected faults must expose. *)

val respct_map :
  ?fault_mode:respct_fault_mode ->
  ?pipeline:bool ->
  ?churn:bool ->
  ?mutant:Respct.Runtime.mutant ->
  sched_seed:int ->
  mem_seed:int ->
  pcso:bool ->
  n_ops:int ->
  unit ->
  Explore.scenario
(** [~pipeline:true] switches on {!Respct.Runtime.config.pipeline}
    (asynchronous epoch advance with double-buffered commits);
    [~churn:true] drives the map with {!Workmix.churn_ops} (tight
    remove/re-insert cycles that stress staged heap reclamation);
    [?mutant] plants one of the pipeline protocol mutants via
    {!Respct.Runtime.set_mutant}. *)

val respct_raw :
  ?mutant:bool ->
  sched_seed:int ->
  mem_seed:int ->
  pcso:bool ->
  n_ops:int ->
  unit ->
  Explore.scenario
(** Raw-word append log over [alloc_raw] + [add_modified]. With
    [~mutant:true] every third word deliberately skips [add_modified]; the
    last-checkpoint oracle must catch the stale word. *)

type structure = Map | Queue

(** The crashmatrix dimension an entry runs in. *)
type dimension =
  | Ablation
      (** the PCSO matrix, where every entry must hold, and the
          word-granular write-back ablation check, where the entry's
          expectation applies *)
  | Faults  (** media faults layered on every crash image *)
  | Pipeline  (** pipelined checkpointing *)

type expect =
  | Holds  (** zero violations *)
  | Detects
      (** zero violations, also with the preset's media faults injected:
          recovery detects or exactly repairs every one *)
  | Breaks  (** a planted bug or a PCSO reliance must produce violations *)

type entry = {
  id : string;
  structure : structure;  (** which preset op count the entry runs at *)
  dimension : dimension;
  expect : expect;  (** in [dimension] *)
  build :
    sched_seed:int -> mem_seed:int -> pcso:bool -> n_ops:int ->
    Explore.scenario;
      (** the built scenario is named [id] *)
}

val all : entry list
(** The one registry: ResPCT and every baseline over both structures
    where applicable, the integrity-mode worlds and their mutant, and the
    pipelined worlds and their mutants. *)

val find : string -> entry option
