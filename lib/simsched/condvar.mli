(** Simulated condition variable with pthread semantics over {!Mutex}. *)

type t

val create : ?name:string -> unit -> t

val wait : Scheduler.t -> t -> Mutex.t -> unit
(** Atomically release the mutex and block; re-acquires the mutex before
    returning. As with pthreads, spurious-wakeup-safe use requires a
    predicate loop around the wait. *)

val signal : Scheduler.t -> t -> unit
(** Wake the oldest waiter, if any. *)

val broadcast : Scheduler.t -> t -> unit
(** Wake every waiter. *)
