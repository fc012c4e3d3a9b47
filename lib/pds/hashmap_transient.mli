(** Transient lock-based hash map (Synch-framework style: one lock per
    bucket, chained [key; value; next] nodes) — the "original program" of
    the paper's evaluation and the structural core wrapped by the
    persistence baselines. *)

type t

val create : Simsched.Env.t -> Mem_iface.t -> buckets:int -> t
(** Allocate the bucket array from the given memory interface.
    @raise Invalid_argument if [buckets <= 0]. *)

val insert : t -> slot:int -> key:int -> value:int -> bool
(** Insert or update under the bucket lock; [true] if the key was absent. *)

val search : t -> slot:int -> key:int -> int option
val remove : t -> slot:int -> key:int -> bool

val ops : t -> Ops.map
(** Harness-facing closure record (no restart points). *)

val persisted_bindings : Simnvm.Memsys.t -> t -> (int * int) list
(** Recovery-time oracle: sorted (key, value) bindings readable from the
    NVMM image alone. Meaningful only when the arena is NVMM-backed (the
    durable baselines wrapping this structure). *)
