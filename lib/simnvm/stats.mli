(** Event counters of the simulated memory system. *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable hits : int;
  mutable dram_misses : int;
  mutable nvm_misses : int;
  mutable dram_writebacks : int;
  mutable nvm_writebacks : int;
  mutable pwbs : int;
  mutable psyncs : int;
  mutable spontaneous_evictions : int;
  mutable crashes : int;
  mutable faults_injected : int;
  mutable media_errors : int;
  mutable media_scrubs : int;
}

val create : unit -> t
val reset : t -> unit

val subscriber : t -> Event.t -> unit
(** Fold one event into the counters; events that are not memory events
    are ignored. This is the reference meaning of the counters: the memory
    bumps its own record ({!Memsys.stats}) inline, and folding this over
    the events it published in a window gives the same deltas. *)

val accesses : t -> int
(** Total loads + stores. *)
