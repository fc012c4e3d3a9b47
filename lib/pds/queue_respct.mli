(** ResPCT-instrumented lock-based FIFO queue: head/tail and node [next]
    pointers are InCLL variables, node values are write-once tracked words;
    nodes are line-aligned 4-word blocks recycled through the epoch-safe
    free lists of {!Respct.Heap}. *)

type t

val create : Respct.Runtime.t -> slot:int -> t
(** Allocate the sentinel and pointer cells; call from a simulated thread. *)

val enqueue : t -> slot:int -> int -> unit
val dequeue : t -> slot:int -> int option

val ops : t -> Ops.queue
(** Harness-facing record; [queue_rp] is [Runtime.rp]. *)

val head_cell : t -> Respct.Incll.cell
(** The head pointer's InCLL cell (trace-analysis tests). *)

val tail_cell : t -> Respct.Incll.cell
(** The tail pointer's InCLL cell (trace-analysis tests). *)

val persisted_contents : Simnvm.Memsys.t -> t -> int list
(** Recovery-time oracle: queue contents (head to tail) readable from the
    NVMM image. *)
