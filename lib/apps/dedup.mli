(* Dedup (Parsec), the condition-variable pipeline of Figure 13. The port
   and its instrumentation are described in dedup.ml, whose lines Table 3
   counts. *)

type cfg = {
  chunks : int;
  distinct : int;
  hashers : int;
  writers : int;
  queue_cap : int;
}

val default_cfg : cfg

(* [run env p cfg] streams [cfg.chunks] chunks through the pipeline on
   fresh simulated threads and returns (virtual makespan, unique chunks). *)
val run : Simsched.Env.t -> App_env.persistence -> cfg -> float * int
