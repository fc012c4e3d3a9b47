(** The three executable worlds a litmus program runs in, each sampling
    one schedule and one adversarial crash image per seed pair:

    - {b kernel}: ops drive {!Simnvm.Memsys} directly;
    - {b ref}: ops drive {!Simnvm.Refmodel}, the executable spec;
    - {b ir}: the program compiles to the analyzer IR and runs through
      {!Analysis.Exec.run_mem} over a kernel memory system.

    A run interleaves threads with the interpreter's seeded LCG
    scheduler ([sched_seed]), with the memory system's own seeded
    spontaneous evictions live ([image_seed] seeds them). At the crash
    point a coin per still-dirty litmus line decides whether its
    in-flight write-back completed; then the world crashes and the
    persisted image is the observed outcome. Soundness: every observed
    outcome must lie in the matching {!Axiom} set. *)

type id = Kernel | Refm | Ir_mem

val id_name : id -> string
val id_of_string : string -> id option
val all_ids : id list

(** {2 Planted mutant}

    Mirrors the {!Respct.Runtime.set_mutant} hook pattern:
    [Drop_same_line_order] runs the kernel-config worlds with
    line-snapshot write-back disabled ([pcso = false]) while the spec
    stays {!Axiom.Pcso} — same-line WAR litmus programs then observe
    PCSO-forbidden outcomes, which the fuzzer must catch. *)

type mutant = Drop_same_line_order

val set_mutant : mutant option -> unit
val mutant : unit -> mutant option

(** {2 Configuration} *)

val line_words : int
(** Words per cache line in every litmus world (the
    {!Simnvm.Addr.default_line_words}). *)

type run_cfg = { eadr : bool; ablation : bool; evict_rate : float }

val run_cfg_of_variant : Axiom.variant -> run_cfg
(** The world configuration matching an axiom variant ([Pcso_lazy] maps
    to the eager substrate — its spec is a superset). *)

val addr_of_loc : Prog.t -> Prog.loc -> Simnvm.Addr.t

val drive :
  sched_seed:int ->
  load:(int -> int) ->
  store:(int -> int -> unit) ->
  pwb:(int -> unit) ->
  psync:(unit -> unit) ->
  Prog.t ->
  bool
(** Run one seeded schedule of the program against raw memory-op
    callbacks (addresses from {!addr_of_loc}), one op per scheduler
    pick; returns [true] iff a [Crash] executed. The hook {!Axcheck}
    and the Filemem dynamic oracle drive arbitrary backends with. *)

val halt_var : Analysis.Ir.var
(** The transient flag [Crash] compiles to an assignment of; the
    stepper and the {!Analysis.Persistate} crash summaries both key on
    it. *)

val compile : Prog.t -> Analysis.Ir.program
(** The IR compilation the [Ir_mem] world runs: stores/loads become
    assignments (loads into transient registers), [Faa] becomes one
    atomic read-modify-write assignment, [Crash] sets a transient halt
    flag that stops the stepper. *)

val run :
  world:id ->
  ?cfg:run_cfg ->
  sched_seed:int ->
  image_seed:int ->
  Prog.t ->
  int list
(** One observed post-crash outcome (persisted value per location, in
    layout order). Deterministic in [(world, cfg, mutant, sched_seed,
    image_seed)] — the replay contract. *)

val exhaustive_ref : ?max_paths:int -> Prog.t -> Axiom.Outcomes.t option
(** Every post-crash outcome the reference model can reach, by
    systematic enumeration of all interleavings crossed with all
    placements of spontaneous write-backs (random eviction off; an
    inserted [pwb] is exactly a spontaneous flush under the eager-clwb
    substrate), including write-backs of residual dirty lines after the
    last instruction. [None] if [max_paths] (default 200k) was
    exceeded. For small programs this must EQUAL the {!Axiom.Pcso}
    set — the completeness direction of the differential check. *)
