(* The Memcached-like key-value store of Figure 14. The port and its
   instrumentation are described in kvstore.ml, whose lines Table 3
   counts. *)

type cfg = {
  clients : int;
  workers : int;
  keys : int;
  buckets : int;
  load_ops : int;
  run_ops : int;
  mix : Ycsb.mix;
}

val default_cfg : cfg

(* [run env p cfg] loads [cfg.load_ops] keys, then each client issues its
   share ([cfg.run_ops / cfg.clients]) of [cfg.mix] requests; returns
   (virtual makespan of the measured phase, operations completed). *)
val run : Simsched.Env.t -> App_env.persistence -> cfg -> float * int
