(* Workload drivers for the data-structure experiments (paper section 5.1).

   A driver owns the full lifecycle of one data point: build the world
   (memory + scheduler + system + structure), prefill from a setup thread,
   release the measurement threads through a barrier, run the op mix with a
   restart point after every operation, and report throughput over the
   measured virtual-time window. *)

type map_params = {
  nthreads : int;
  duration_ns : float;  (** measured virtual-time window per thread *)
  key_space : int;
  update_pct : int;  (** updates per 100 operations; half insert, half remove *)
  prefill : int;
  seed : int;
}

type queue_params = {
  q_nthreads : int;
  q_duration_ns : float;
  q_prefill : int;
  q_seed : int;
}

type result = {
  mops : float;  (** million ops per virtual second *)
  elapsed_ns : float;  (** mean per-thread measured window *)
  total_ops : int;
}

(* Both drivers run the world's scheduler to completion; a crash interrupt
   is [Failure]. [on_window] runs when the measured window opens, and the
   statistics of [mem], when given, are reset there, so they cover the
   window only. *)

(* Map workload: [build] runs inside the setup thread and returns the ops
   record plus the system hooks. Update operations are half inserts, half
   removes (paper section 5.1). *)
val run_map :
  ?mem:Simnvm.Memsys.t ->
  ?on_window:(unit -> unit) ->
  sched:Simsched.Scheduler.t ->
  params:map_params ->
  build:(unit -> Pds.Ops.map * Pds.Ops.system) ->
  unit ->
  result

(* Queue workload: 1:1 enqueue/dequeue mix (paper Figure 9). *)
val run_queue :
  ?mem:Simnvm.Memsys.t ->
  ?on_window:(unit -> unit) ->
  sched:Simsched.Scheduler.t ->
  params:queue_params ->
  build:(unit -> Pds.Ops.queue * Pds.Ops.system) ->
  unit ->
  result
