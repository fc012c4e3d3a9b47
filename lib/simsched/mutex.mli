(** Simulated pthread-style mutex with virtual-time hand-off semantics: on
    unlock, ownership passes to the oldest waiter and the waiter's clock is
    advanced to the release instant, serialising critical sections in
    virtual time. *)

type t

val create : ?name:string -> unit -> t
(** A free lock. Its identity in [Acquire]/[Release] events is numbered
    by the scheduler on whose bus it first appears
    ({!Scheduler.next_lock_id}). *)

val lock : Scheduler.t -> t -> unit
(** Acquire, blocking in virtual time while contended. *)

val unlock : Scheduler.t -> t -> unit
(** Release; hands off to the oldest waiter.
    @raise Invalid_argument if the caller is not the owner. *)

val try_lock : Scheduler.t -> t -> bool
(** Non-blocking acquire. *)

val holder : t -> int option
(** Owner tid, if any (test hook). *)

val with_lock : Scheduler.t -> t -> (unit -> 'a) -> 'a
(** Run a critical section. The lock is not released when the section is
    interrupted by a simulated crash — the machine died holding it. *)
