(* Durably linearizable baselines: Clobber-NVM and Quadra/Trinity.

   Both run the transient NVMM structures inside failure-atomic sections
   (see Fatomic); they differ only in the logging discipline. The paper
   evaluates Quadra on the Queue and Trinity on the HashMap; both share the
   InCLL-based per-operation protocol we model with the [Quadra] policy. *)

val make_map :
  Simsched.Env.t ->
  policy:Fatomic.policy ->
  max_threads:int ->
  buckets:int ->
  Pds.Ops.map * Pds.Ops.system

val make_queue :
  Simsched.Env.t ->
  policy:Fatomic.policy ->
  max_threads:int ->
  Pds.Ops.queue * Pds.Ops.system

(* Crash-test handles: same construction, but with shadow capture enabled
   and the failure-atomic machinery plus the structure handle exposed, so
   the crash explorer can run shadow recovery and read the persisted
   contents. Creation runs inside its own atomic section: a crash between
   creation and the first operation rolls back to a committed empty
   structure. *)

val make_map_instrumented :
  Simsched.Env.t ->
  policy:Fatomic.policy ->
  max_threads:int ->
  buckets:int ->
  Fatomic.t * Pds.Hashmap_transient.t * Pds.Ops.map

val make_queue_instrumented :
  Simsched.Env.t ->
  policy:Fatomic.policy ->
  max_threads:int ->
  Fatomic.t * Pds.Queue_transient.t * Pds.Ops.queue
