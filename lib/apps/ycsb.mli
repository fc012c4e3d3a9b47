(** YCSB-style workload generation (Cooper et al., SoCC'10) for the
    Figure 14 KV-store evaluation: zipfian key popularity and read/write
    mixes. *)

type mix = { read_pct : int }

val read_intensive : mix
(** 90% reads. *)

val balanced : mix
(** 50% reads. *)

val write_intensive : mix
(** 10% reads. *)

type zipf

val make_zipf : ?theta:float -> int -> zipf
(** Standard YCSB zipfian generator over [0, n); [theta] defaults to the
    YCSB constant 0.99. *)

val sample_zipf : zipf -> Simnvm.Rng.t -> int
(** Constant-time sample; rank 0 is the most popular key. *)

type op = Get of int | Put of int * int

val scramble : int -> int -> int
(** Spread a zipfian rank over the key space (YCSB's hashed item order). *)

val next_op : mix -> zipf -> Simnvm.Rng.t -> op
(** One operation of the mix over a zipfian-scrambled key. *)
