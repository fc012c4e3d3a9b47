(** Bounded admission queue with typed rejection.

    The producer side never blocks: {!offer} fails fast against a full
    or closed queue so the client can back off, retry elsewhere, or
    surface the error. The consumer side blocks in virtual time and
    drains batches. Depth can never exceed the cap — admission control
    is the cap, not a soft target. *)

type reject =
  | Queue_full  (** the shard is saturated: back off and retry *)
  | Shard_down  (** the shard closed (crashed or shut down): don't *)

type 'a t

val create : ?name:string -> Simsched.Scheduler.t -> cap:int -> 'a t
(** @raise Invalid_argument if [cap <= 0]. *)

val offer : 'a t -> 'a -> (int, reject) result
(** Non-blocking enqueue; [Ok depth] reports the queue depth after the
    push (for depth telemetry). Call from a simulated fiber. *)

val take :
  'a t ->
  max:int ->
  wait:(Simsched.Condvar.t -> Simsched.Mutex.t -> unit) ->
  'a list
(** Block until work arrives, then drain up to [max] requests in FIFO
    order. Returns [[]] only when the queue is closed and empty — the
    consumer's signal to exit. [wait] performs one condition wait (a
    ResPCT worker passes [Runtime.cond_wait] so checkpoints can proceed
    while it is parked). *)

val close : 'a t -> 'a list
(** Close the queue: subsequent offers fail with [Shard_down], parked
    consumers wake and drain out. Returns the undrained requests so the
    caller can fail them back to their clients. *)

val accepted : 'a t -> int
val rejected_full : 'a t -> int
val rejected_down : 'a t -> int
val max_depth : 'a t -> int
(** High-water mark of the depth; never exceeds the cap. *)
