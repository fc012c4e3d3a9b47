(** Dynamic execution of IR programs, so every static verdict can be
    validated end-to-end.

    The {b stepper} ([run]) runs a program under a seeded deterministic
    scheduler, one atomic statement per step. Variables that [addr_of]
    binds live in a memory given as four operations ({!mem}: a
    {!Simnvm.Memsys}, a {!Simnvm.Refmodel}, a file backend); the rest
    live in a host table. It is the one interleaving engine of the
    repository: the litmus worlds run their programs, compiled to this
    IR, through it, and the host interpreter is the same stepper.

    The {b host interpreter} ([interp]) is the stepper with every
    variable in the host table and the {!Idempotence} automaton
    attached. It reports the actual dynamic WAR set and the automaton's
    verdict per variable — the ground truth for the QCheck soundness
    properties: {!Warstatic} must flag every WAR any execution
    exhibits, and on straight-line programs must agree exactly with
    the verdicts.

    The {b simulator world} ([sim_world]) runs the program on
    {!Simsched}/{!Respct.Runtime} under an instrumentation plan:
    plan-logged variables become InCLL cells updated through the
    runtime, plan-tracked variables become raw persistent words with
    plain stores plus [add_modified], restart points call [Runtime.rp].
    The world exposes the crashmatrix-style last-checkpoint durability
    oracle so inferred plans can be pushed through the {!Crashtest}
    explorer, and [strip_log] plants the logging-removed mutant. *)

module Vars = Dataflow.Vars

(** {2 The stepper} *)

type mem = {
  load : Simnvm.Addr.t -> int;
  store : Simnvm.Addr.t -> int -> unit;
  pwb : Simnvm.Addr.t -> unit;
  psync : unit -> unit;
}
(** The memory the memory-held variables live in. *)

val of_memsys : Simnvm.Memsys.t -> mem
val of_refmodel : Simnvm.Refmodel.t -> mem

type status = {
  all_done : bool;
      (** every thread ran to completion within fuel (a thread stopped
          by an error did not) *)
  halted : bool;  (** stopped because [halt_var] became nonzero *)
  error : string option;
      (** the first thread error (a release of a lock the thread does
          not hold); that thread stopped there *)
}

val run :
  ?fuel:int ->
  ?sched_seed:int ->
  ?halt_var:Ir.var ->
  mem:mem ->
  addr_of:(Ir.var -> Simnvm.Addr.t option) ->
  Ir.program ->
  status
(** Run one seeded schedule (default seed 0) of at most [fuel] steps
    (default 100 000). Each step draws one thread among the runnable
    ones and runs its next statement atomically: an assignment
    evaluates its right-hand side and writes in one step, like one CFG
    node; [Pwb v] and [Psync] reach [mem] ([Pwb] of a host variable does
    nothing). A thread whose next statement acquires a lock another
    thread holds is not runnable; the run stops when no thread is.

    A memory-held variable is stored at start only when its initial
    value is nonzero, so a zero-initialised program over a zeroed image
    dirties no line before its first real store. [halt_var], a host
    variable, stops every thread at the next scheduling point once it
    is nonzero (litmus [crash] compiles to an assignment to it). After
    the last step [run] touches [mem] no more. *)

(** {2 The host interpreter} *)

type obs = {
  verdicts : (Ir.var * Idempotence.classification) list;
      (** the automaton's verdict on every declared variable, merged
          over threads and restart-point-delimited regions *)
  finals : (Ir.var * int) list;
  completed : bool;  (** {!status}'s [all_done] *)
  thread_error : string option;  (** {!status}'s [error] *)
}

val interp : ?fuel:int -> ?sched_seed:int -> Ir.program -> obs
(** {!run} with every variable in the host table and the WAR automaton
    attached. Deadlocked or fuel-exhausted runs return [completed =
    false]; WARs observed up to that point are still real. *)

type world = {
  w_mem : Simnvm.Memsys.t;
  w_bus : Simnvm.Event.bus;
      (** the world's event bus, for attaching {!Audit.watch} around
          [w_run] *)
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
