(* Montage (ICPP'21): buffered durability through copy-on-write payloads.

   Every update allocates a fresh persistent payload block from a shared
   allocator (the paper's identified Montage cost: allocator stress), while
   indexes and pointers stay in DRAM. Payloads written during an epoch are
   flushed at the epoch boundary by the background coordinator. The FIFO
   queue additionally maintains a persistent global sequence number updated
   inside the critical section — the metadata Montage needs to rebuild the
   queue order at recovery (paper footnote 3), and its second cost.

   Retired payloads are reclaimed one epoch later (Montage's epoch-based
   reclamation). *)

(* Each structure comes with its system handle. Building it starts the
   epoch coordinator (one epoch every [period_ns], [flusher_pool] flushing
   threads); the restart point is the epoch gate's pause point, and the
   system handle registers workers with the gate and stops the
   coordinator. *)
val make_map :
  Simsched.Env.t ->
  max_threads:int ->
  period_ns:float ->
  flusher_pool:int ->
  buckets:int ->
  Pds.Ops.map * Pds.Ops.system

val make_queue :
  Simsched.Env.t ->
  max_threads:int ->
  period_ns:float ->
  flusher_pool:int ->
  Pds.Ops.queue * Pds.Ops.system
