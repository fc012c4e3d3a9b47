(** Reusable cyclic barrier (for data-parallel application kernels). *)

type t

val create : ?name:string -> int -> t
(** [create parties] makes a barrier for [parties] threads.
    @raise Invalid_argument if [parties <= 0]. *)

val await : Scheduler.t -> t -> unit
(** Block until all parties arrived; the barrier then resets. *)
