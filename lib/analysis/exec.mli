(** Dynamic execution of IR programs, in two flavours, so every static
    verdict can be validated end-to-end.

    The {b host interpreter} ([interp]) runs a program natively under a
    seeded deterministic scheduler and observes the actual dynamic WAR
    set and per-region access traces — the ground truth for the QCheck
    soundness property: {!Warstatic} must flag every WAR any execution
    exhibits, and on straight-line programs must agree exactly with
    {!Idempotence.classify} over the recorded segments.

    The {b simulator world} ([sim_world]) runs the program on
    {!Simsched}/{!Respct.Runtime} under an instrumentation plan:
    plan-logged variables become InCLL cells updated through the
    runtime, plan-tracked variables become raw persistent words with
    plain stores plus [add_modified], restart points call [Runtime.rp].
    The world exposes the crashmatrix-style last-checkpoint durability
    oracle so inferred plans can be pushed through the {!Crashtest}
    explorer, and [strip_log] plants the logging-removed mutant. *)

module Vars = Dataflow.Vars

type obs = {
  war : Vars.t;  (** variables dynamically WAR in some region *)
  segments : (string * Idempotence.access list list) list;
      (** per thread: the straight-line access trace of each
          restart-point-delimited region, in execution order (the last
          segment is the trailing partial region) *)
  finals : (Ir.var * int) list;
  completed : bool;  (** all threads ran to completion within fuel *)
  thread_error : string option;  (** e.g. a release of an unheld lock *)
}

val interp : ?fuel:int -> ?sched_seed:int -> Ir.program -> obs
(** Execute on the host under a seeded scheduler, one atomic statement
    per step (assignments read and write atomically, like one CFG
    node). Deadlocked or fuel-exhausted runs return [completed =
    false]; WARs observed up to that point are still real. *)

type mem_obs = {
  mo_finals : (Ir.var * int) list;  (** volatile (coherent) final values *)
  mo_halted : bool;  (** stopped because [halt_var] became nonzero *)
  mo_completed : bool;  (** every thread ran to completion within fuel *)
}

val run_mem :
  ?fuel:int ->
  ?sched_seed:int ->
  ?halt_var:Ir.var ->
  mem:Simnvm.Memsys.t ->
  addr_of:(Ir.var -> Simnvm.Addr.t option) ->
  Ir.program ->
  mem_obs
(** The {b memory-backed stepper}: [interp]'s scheduler and statement
    semantics, but variables with an [addr_of] binding live in the given
    {!Simnvm.Memsys} (loads/stores go through the cache; [Pwb]/[Psync]
    hit the memory system), the rest stay host-transient. Used by the
    litmus harness as the "analyzer IR over real persistent memory"
    world: the caller seeds [mem], runs, then crashes it and reads the
    persisted image. Initial stores are skipped when the image already
    holds the initial value, so a zero-initialised program does not
    dirty any line before its first real store. [halt_var], when it
    becomes nonzero, stops every thread at the next scheduling point
    (litmus [crash] compiles to an assignment to it). *)

type world = {
  w_mem : Simnvm.Memsys.t;
  w_bus : Simnvm.Event.bus;
      (** the world's event bus, for attaching the dynamic advisor or a
          race checker around [w_run] *)
  w_run : unit -> unit;
  w_completed : unit -> int;  (** restart points executed *)
  w_recover_check : unit -> (unit, string) result;
  w_var_addrs : unit -> (Ir.var * Simnvm.Addr.t) list;
      (** persistent variable -> data word address (a cell's record word
          for logged variables); populated once [w_run] has allocated *)
}

val sim_world :
  ?sched_seed:int ->
  ?mem_seed:int ->
  ?pcso:bool ->
  ?strip_log:Ir.var list ->
  ?oracle_log:Vars.t ->
  plan:Placement.plan ->
  Ir.program ->
  world
(** [strip_log] demotes plan-logged variables to tracked raw words (the
    planted mutant: same stores, no InCLL log). [oracle_log] is the
    ground-truth set of variables that must recover to the exact
    last-checkpoint value (default: [plan.log]); stripped variables stay
    in it, which is what makes the mutant fail under adversarial
    eviction images. RAW-only variables get the weaker membership
    oracle — the checkpoint value or any value written in the failed
    epoch — since re-execution overwrites them before reading. *)
