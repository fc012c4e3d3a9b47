(* The paper's evaluation experiments (section 5.1-5.2): the scales and
   the one map or queue data point that Figures 8-11, the integrity sweep
   and the perf sweeps measure. [Figures] builds the printed rows and the
   JSON experiments from the points.

   Scaling: one simulated memory operation costs tens of virtual
   nanoseconds, exactly like the hardware, but wall-clock budgets limit how
   many of them a data point can execute. The [small] scale therefore
   shrinks both the structures and the checkpoint period so that every
   epoch still covers thousands of operations per thread — the ratio that
   determines checkpoint overhead — while the [paper] scale uses the
   paper's parameters (1M-bucket tables, 64 ms periods) for long runs. *)

type scale = {
  label : string;
  sweep_threads : int list;  (** x-axis of Figures 8 and 9 *)
  duration_ns : float;  (** measured window per data point *)
  map_prefill : int;
  buckets : int;
  queue_prefill : int;
  period_ns : float;  (** default checkpoint interval *)
  fig10_threads : int;
  fig11_periods_ns : float list;
  fig12_buckets : int list;
  recovery_threads : int;
}

val small : scale
val paper : scale

(* Memory geometry scaled to the structure size: nodes + registry + slack. *)
val params_for : scale -> threads:int -> kind:Systems.kind -> Systems.params

(* {1 Points} *)

(* A map workload with its update percentage (the rest search), or the
   queue workload (1:1 enqueue/dequeue). *)
type workload = Map of int | Queue

(* One data point of [kind] at [threads] on [w], in a fresh world built
   from [params] (default [params_for]), with the observability probes
   attached: a Memobs counter registry on the memory-event pipeline
   (reset at the measurement-window start, so like Stats it covers the
   window only) and span profiling on the ResPCT runtime. The extras
   carry the workload's [total_ops] and [elapsed_ns] and, when the
   system is ResPCT, the checkpoint statistics ([checkpoints],
   [flushed_addrs], [flush_ns], [stall_ns], [overlap_ns] and
   [effective_period_ns]). Probes are pure observation: the virtual-time
   results do not depend on them. *)
val point :
  ?params:Systems.params ->
  scale ->
  Systems.kind ->
  workload ->
  threads:int ->
  Obs.Run.point

(* Readers of a point: throughput ([nan] when absent) and one of its
   extra fields ([nan], resp. [0], when absent or null). *)
val point_mops : Obs.Run.point -> float
val point_extra_float : Obs.Run.point -> string -> float
val point_extra_int : Obs.Run.point -> string -> int
