(* Builders assembling one (world, system, structure) per evaluated system.

   Each builder returns the fresh scheduler plus a [build] closure that the
   workload driver calls inside its setup thread (structure creation
   performs simulated memory accesses and must run on a simulated thread). *)

type params = {
  max_threads : int;
  period_ns : float;
  flusher_pool : int;
  buckets : int;
  nvm_words : int;
  dram_words : int;
  seed : int;
  cache_sets : int;
  cache_ways : int;
  mode : Respct.Runtime.mode;  (** ResPCT variants (Figure 10) *)
  registry_per_slot : int;
  eadr : bool;
  integrity : bool;  (** checksum-sealed ResPCT metadata (faulty-media mode) *)
  pipeline : bool;  (** ResPCT pipelined checkpointing (async epoch advance) *)
}

val default_params : params

type kind =
  | Transient_dram
  | Transient_nvm
  | Respct
  | Pmthreads
  | Montage
  | Clobber
  | Quadra  (** Trinity for the map, Quadra for the queue *)
  | Soft  (** map only *)
  | Dali  (** map only *)
  | Friedman  (** queue only *)

(* The system's name in tables and JSON. *)
val name_of : kind -> string

(* The systems of Figure 8 and of Figure 9, in row order. *)
val map_kinds : kind list
val queue_kinds : kind list

(* Fresh world per data point: every system measures against its own
   memory image and scheduler. The memory writes back line-granular
   (PCSO) at [Memsys]'s default spontaneous-eviction rate, and the
   scheduler's quantum is 50 ns. *)
val world :
  params -> kind:kind -> Simnvm.Memsys.t * Simsched.Scheduler.t * Simsched.Env.t

(* The ResPCT runtime configuration [params] describes. *)
val rt_cfg : params -> Respct.Runtime.config

(* Returns (sched, env, runtime option, build) — the runtime is exposed so
   experiments can read checkpoint statistics afterwards. A queue-only
   [kind] is [Invalid_argument] for [map_system], a map-only one for
   [queue_system]. *)
val map_system :
  params ->
  kind ->
  Simsched.Scheduler.t
  * Simsched.Env.t
  * Respct.Runtime.t option
  * (unit -> Pds.Ops.map * Pds.Ops.system)

val queue_system :
  params ->
  kind ->
  Simsched.Scheduler.t
  * Simsched.Env.t
  * Respct.Runtime.t option
  * (unit -> Pds.Ops.queue * Pds.Ops.system)
