(* Real-world workload experiments: Figure 13 (compute-intensive
   applications) and Figure 14 (Memcached-like KV store under YCSB). *)

type app_scale = {
  matmul_n : int;
  lr_points : int;
  swaptions : int;
  dedup_chunks : int;
  kv_load : int;
  kv_run : int;
  kv_keys : int;
  app_threads : int;
  period_ns : float;
}

val small : app_scale
val paper : app_scale

type variant = App_dram | App_nvm | App_respct

(* The row label: Transient<DRAM>, Transient<NVMM> or ResPCT. *)
val variant_name : variant -> string

(* Build a world sized for an application run; returns (env, persistence,
   transient arena). *)
val app_world :
  app_scale ->
  variant ->
  nthreads:int ->
  nvm_words:int ->
  Simsched.Env.t * Apps.App_env.persistence * Pds.Bump.t

(* The virtual makespan of one application run; [true] selects the naive
   restart-point placement of section 5.3. *)
val run_app :
  app_scale ->
  variant ->
  [ `Matmul | `Linreg of bool | `Swaptions of bool | `Dedup ] ->
  float

(* Figure 13's rows: execution time normalised to Transient<DRAM> (whose
   row reads 1.00) for Dedup, Swaptions, MatMul and LR under each variant,
   then the naive-placement row for Swaptions and LR. *)
val fig13 : app_scale -> (string * string list) list

(* Figure 14's rows: KV-store throughput (Kops/s) per variant, one cell per
   YCSB mix (read-intensive, balanced, write-intensive). *)
val fig14 : app_scale -> (string * string list) list
