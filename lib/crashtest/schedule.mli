(** Bounded schedule exploration: scheduler-seed sweeps plus targeted
    preemption injection at lock-acquire / atomic-RMW trace events. *)

type injection = {
  at_sync : int;  (** ordinal of the Acquire/Rmw trace event to hit *)
  delay_ns : float;  (** extra charge before the forced preemption *)
}

type spec = {
  name : string;
  run : sched_seed:int -> injection option -> (unit, string) result * int;
      (** one full deterministic run: result of the scenario's own
          functional checks (deadlocks reported as [Error]) and the number
          of synchronisation points seen, which sizes the injection sweep *)
}

type failure = {
  spec : string;
  sched_seed : int;
  injection : injection option;
  reason : string;
}

val pp_failure : failure Fmt.t

val sweep :
  spec -> seeds:int list -> delays:float list -> stride:int -> failure list
(** For every seed: one baseline run, then one run per (every [stride]-th
    synchronisation point × delay) with the preemption injected there. *)

val all_specs : spec list
(** The classic sweep set, pinned by the smoke golden: two producers on
    the lock-based transient queue (per-producer FIFO order and drain
    completeness checked), and two ResPCT workers on disjoint key ranges
    with restart points under the runtime's periodic coordinator (volatile
    contents checked against the per-worker models, rp/checkpoint
    deadlocks reported). *)

val pipeline_specs : spec list
(** The ResPCT map spec under {!Respct.Runtime.config.pipeline}: the
    deadlock hunt for rp parking on the overlap barrier, the coordinator's
    backpressure wait and the flusher pool's condvars. *)
