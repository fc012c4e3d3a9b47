(* Real-world workload runs: the applications of Figure 13
   (compute-intensive) and the Memcached-like KV store of Figure 14 (under
   YCSB). [Figures] builds both figures from these runs. *)

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

(* One KV-store run under the YCSB [mix]: its virtual duration and the
   operations it completed. *)
val run_kv : app_scale -> variant -> Apps.Ycsb.mix -> float * int
