(* The paper's evaluation experiments (section 5.1-5.2): the data points
   each figure measures. [Figures] builds the printed rows and the JSON
   experiments from them.

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

(* {1 Plain points} *)

(* One map or queue data point of [kind] at [threads] (default 50%
   updates), in a fresh world built from [params] (default
   [params_for]); the runtime is returned when the system is ResPCT. *)
val map_point :
  ?update_pct:int ->
  ?params:Systems.params ->
  scale ->
  Systems.kind ->
  threads:int ->
  Workload.result * Respct.Runtime.t option

val queue_point :
  ?params:Systems.params ->
  scale ->
  Systems.kind ->
  threads:int ->
  Workload.result * Respct.Runtime.t option

(* {1 Instrumented points} *)

(* Instrumented points: the same worlds as [map_point]/[queue_point], with
   the observability probes attached — a Memobs counter registry on the
   memory-event pipeline (reset at the measurement-window start, so like
   Stats it covers the window only), span profiling on the ResPCT runtime,
   and the checkpoint statistics — all bundled into an [Obs.Run.point].
   Probes are pure observation: the virtual-time results are bit-identical
   to the uninstrumented points. *)
val map_point_obs :
  ?update_pct:int ->
  ?params:Systems.params ->
  scale ->
  Systems.kind ->
  threads:int ->
  Obs.Run.point

val queue_point_obs :
  ?params:Systems.params -> scale -> Systems.kind -> threads:int -> Obs.Run.point

(* Readers of a point: throughput ([nan] when absent), the effective
   checkpoint period ([nan] when absent), and one of its extra fields
   ([nan], resp. [0], when absent). *)
val point_mops : Obs.Run.point -> float
val point_eff : Obs.Run.point -> float
val point_extra_float : Obs.Run.point -> string -> float
val point_extra_int : Obs.Run.point -> string -> int

(* {1 The figures' points}

   [Figures] turns these into the printed rows and the JSON experiments. *)

(* Figure 8: per update ratio (10, 50, 90%), per map system, one point per
   thread count of the sweep. *)
val fig8_points : scale -> (int * (string * Obs.Run.point list) list) list

(* Figure 9: per queue system, one point per thread count of the sweep
   (1:1 enqueue/dequeue). *)
val fig9_points : scale -> (string * Obs.Run.point list) list

(* Figure 10: per configuration (Transient<DRAM> first, the normalisation
   base; then Transient<NVMM>, ResPCT-InCLL, ResPCT-noFlush and ResPCT),
   one point per workload (Queue, HashMap-RI, HashMap-WI) at
   [fig10_threads]. *)
val fig10_points : scale -> (string * (string * Obs.Run.point) list) list

(* Figure 11: the Transient<DRAM> write-intensive map point, the
   normalisation base, and one ResPCT point per checkpoint period of
   [fig11_periods_ns] (its extras carry the measured effective period). *)
val fig11_points : scale -> Obs.Run.point * (float * Obs.Run.point) list

(* Figure 12: per size of [fig12_buckets], a write-intensive ResPCT map run
   crashed mid-epoch, then recovered by [recovery_threads] threads; the
   point's extras carry the recovery report. *)
val fig12_points : scale -> Obs.Run.point list

(* {1 Integrity tax} *)

(* Integrity tax: ResPCT with checksum-sealed metadata
   ([Systems.params.integrity]) against the raw representation, in the
   same worlds and workloads as Figures 8/9. The sealing work rides the
   InCLL-update and checkpoint-commit hot paths, so the interesting number
   is the relative throughput delta per workload, not the absolute one. *)
val integrity_points :
  ?scale:scale ->
  ?threads:int list ->
  unit ->
  (string * (int * Obs.Run.point * Obs.Run.point) list) list

(* One row per workload: "sealed/raw (delta%)" per thread count. *)
val integrity_overhead_rows :
  (string * (int * Obs.Run.point * Obs.Run.point) list) list ->
  (string * string list) list
