(** Crash-point enumeration: the persist-relevant event boundaries of a
    deterministic execution, a walk that stops at each of them, and the
    fingerprint that pins a boundary across two runs of one world. *)

val persist_event : nvm_words:int -> Simnvm.Event.t -> bool
(** Whether the event can change what a power failure leaves in NVMM: an
    NVMM store, an NVMM write-back, or a fence. *)

val walk :
  Simnvm.Memsys.t ->
  at:(int -> Simnvm.Event.t -> unit) ->
  (unit -> unit) ->
  unit
(** [walk mem ~at run] executes [run] with a subscriber on the memory's
    bus that calls [at k ev] at the instant persist-relevant event [k]
    (counting from 0) is published, [ev] being that event: what it did to
    the persistent image is in place (a write-back has landed), the access
    it announces has not happened (a store is not yet in the cache). That
    instant is the crash instant of boundary [k]; only a boundary whose
    event is a write-back has a persistent image different from the
    boundary before it. The subscriber ignores the events
    published while [at] runs, and every event after an [at] that
    raised; the exception unwinds out of [run] and [walk]. The subscriber
    is detached on every exit path. *)

type fingerprint = { completed : int; dirty : int }
(** What a deterministic re-run reproduces at a boundary: the count of
    completed operations and a digest of the dirty NVMM lines (line
    number, dirty mask and words of each). *)

val fingerprint : Simnvm.Memsys.t -> completed:int -> fingerprint
(** The fingerprint of the memory's current boundary, at which [completed]
    operations are done, folded straight over the cache's dirty NVMM
    lines in slot order ({!Simnvm.Memsys.fold_dirty_nvm}): it costs the
    dirty lines, not the cache, copies no line and allocates only the
    record. *)

val pilot :
  Simnvm.Memsys.t -> completed:(unit -> int) -> (unit -> unit) -> fingerprint array
(** [pilot mem ~completed run] walks [run] to completion and returns the
    fingerprint of every boundary, in order: their number is the
    boundary count, and each is the determinism reference for the
    matching boundary of a later run of the same world. *)
