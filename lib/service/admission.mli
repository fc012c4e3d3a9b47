(** Bounded admission queue with typed rejection.

    The producer side never blocks: {!offer} fails fast against a full
    or closed queue so the client can back off, retry elsewhere, or
    surface the error. The consumer side blocks in virtual time and
    drains batches into a buffer it owns. Depth can never exceed the
    cap — admission control is the cap, not a soft target.

    Entries are plain ints (the service queues session ids). They sit in
    a ring of exactly [cap] slots, which the cap keeps from ever growing,
    so queueing an entry allocates no cell and taking a batch no list. *)

type reject =
  | Queue_full  (** the shard is saturated: back off and retry *)
  | Shard_down  (** the shard closed (crashed or shut down): don't *)

type t

val create : ?name:string -> Simsched.Scheduler.t -> cap:int -> t
(** @raise Invalid_argument if [cap <= 0]. *)

val offer : t -> int -> (int, reject) result
(** Non-blocking enqueue; [Ok depth] reports the queue depth after the
    push (for depth telemetry). Call from a simulated fiber. *)

val take :
  t -> int array -> wait:(Simsched.Condvar.t -> Simsched.Mutex.t -> unit) -> int
(** [take t buf ~wait] blocks until work arrives, then moves up to
    [Array.length buf] entries in FIFO order into [buf.(0)], [buf.(1)],
    … and returns how many it moved. Returns [0] only when the queue is
    closed and empty — the consumer's signal to exit. [wait] performs
    one condition wait (a ResPCT worker passes [Runtime.cond_wait] so
    checkpoints can proceed while it is parked).
    @raise Invalid_argument if [buf] is empty. *)

val close : t -> int list
(** Close the queue: subsequent offers fail with [Shard_down], parked
    consumers wake and drain out. Returns the undrained entries in FIFO
    order so the caller can fail them back to their clients. *)

val accepted : t -> int
val rejected_full : t -> int
val rejected_down : t -> int
val max_depth : t -> int
(** High-water mark of the depth; never exceeds the cap. *)
