(* Dali (Nawab et al., DISC'17): a periodically persistent hash map.

   Updates prepend a version record to the bucket's chain with plain NVMM
   stores — no flushes on the operation path. Reads traverse the chain and
   take the newest version of the key (read indirection: chains hold stale
   versions until the epoch boundary). At each epoch the coordinator
   flushes the dirty buckets and compacts their chains, retiring superseded
   versions.

   Record: [key; value; next]; a tombstone is a record whose value is
   [tombstone]. *)

(* The map and its system handle. Building the map starts its epoch
   coordinator (one epoch every [period_ns], [flusher_pool] flushing
   threads); the map's restart point is the epoch gate's pause point, and
   the system handle registers workers with the gate and stops the
   coordinator. *)
val make_map :
  Simsched.Env.t ->
  max_threads:int ->
  period_ns:float ->
  flusher_pool:int ->
  buckets:int ->
  Pds.Ops.map * Pds.Ops.system
