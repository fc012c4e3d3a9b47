(* Crash-point enumeration over the memory's event bus.

   A persist-relevant event is any action that changes, or could have
   changed, what a power failure leaves in NVMM: a store to an NVMM
   address (it dirties a line), a write-back into the NVMM image, or a
   fence. The boundaries between consecutive persist-relevant events are
   exactly the distinct crash instants of a deterministic execution: a
   crash anywhere between two such events yields the same persistent image
   and the same set of dirty lines.

   The pilot run counts the boundaries; a crash run re-executes the same
   deterministic world and raises [Crash_now] from a subscriber when the
   chosen boundary fires. The exception unwinds through the fiber (the
   scheduler kills the remaining threads and re-raises it from
   [Scheduler.run]) or, for events emitted during setup code outside any
   fiber, directly out of the instance's [run] — both paths end in
   [run_to]'s handler. [Fun.protect] guarantees the subscriber is detached
   from the world on every exit path, including crashes: a leaked
   subscriber would crash the *next* world's pilot at a stale index. *)

exception Crash_now

let persist_event ~nvm_words = function
  | Simnvm.Event.Store { addr; _ } -> addr < nvm_words
  | Simnvm.Event.Writeback { backing = Simnvm.Event.Nvm; _ } -> true
  | Simnvm.Event.Psync _ -> true
  | _ -> false

let pilot mem ~completed f =
  let nw = (Simnvm.Memsys.config mem).Simnvm.Memsys.nvm_words in
  let acc = ref [] in
  let n = ref 0 in
  let bus = Simnvm.Memsys.bus mem in
  let sub =
    Simnvm.Event.subscribe bus (fun ev ->
        if persist_event ~nvm_words:nw ev then begin
          acc := completed () :: !acc;
          incr n
        end)
  in
  Fun.protect
    ~finally:(fun () -> Simnvm.Event.unsubscribe bus sub)
    (fun () -> f ());
  (!n, Array.of_list (List.rev !acc))

let run_to mem ~crash_index f =
  let nw = (Simnvm.Memsys.config mem).Simnvm.Memsys.nvm_words in
  let n = ref 0 in
  let bus = Simnvm.Memsys.bus mem in
  let sub =
    Simnvm.Event.subscribe bus (fun ev ->
        if persist_event ~nvm_words:nw ev then begin
          if !n = crash_index then raise Crash_now;
          incr n
        end)
  in
  Fun.protect
    ~finally:(fun () -> Simnvm.Event.unsubscribe bus sub)
    (fun () ->
      match f () with
      | () -> `Completed
      | exception Crash_now -> `Crashed)
