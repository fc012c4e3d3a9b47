(** Transient lock-based FIFO queue ("queue protected by one lock"):
    sentinel-headed linked list of [value; next] nodes, head/tail pointers
    in simulated memory. *)

type t

val create : Simsched.Env.t -> Mem_iface.t -> t
val enqueue : t -> slot:int -> int -> unit
val dequeue : t -> slot:int -> int option

val ops : t -> Ops.queue
(** Harness-facing closure record (no restart points). *)

val persisted_contents : Simnvm.Memsys.t -> t -> int list
(** Recovery-time oracle: contents (head to tail) readable from the NVMM
    image alone. Meaningful only when the arena is NVMM-backed (the durable
    baselines wrapping this structure). *)
