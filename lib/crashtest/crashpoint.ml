(* Crash-point enumeration over the memory's event bus.

   A persist-relevant event is any action that changes, or could have
   changed, what a power failure leaves in NVMM: a store to an NVMM
   address (it dirties a line), a write-back into the NVMM image, or a
   fence. The boundaries between consecutive persist-relevant events are
   exactly the distinct crash instants of a deterministic execution: a
   crash anywhere between two such events yields the same persistent image
   and the same set of dirty lines.

   [walk] hands each boundary and its event to its caller at the instant
   the event is published, while the world is stopped inside the
   publishing access: the pilot records a fingerprint there, the explorer
   checks the crash images there and lets the world run on. Only a
   write-back changes the persistent image, so the explorer reads the
   event to tell which boundaries share one. [Fun.protect] guarantees the
   subscriber is detached from the world on every exit path: a leaked
   subscriber would fire in the *next* run of the world at stale
   indices. *)

let persist_event ~nvm_words = function
  | Simnvm.Event.Store { addr; _ } -> addr < nvm_words
  | Simnvm.Event.Writeback { backing = Simnvm.Event.Nvm; _ } -> true
  | Simnvm.Event.Psync _ -> true
  | _ -> false

(* [busy] covers both the events published while [at] runs and, since it
   stays set when [at] raises, the events the world's unwinding code
   publishes afterwards. *)
let walk mem ~at run =
  let nw = (Simnvm.Memsys.config mem).Simnvm.Memsys.nvm_words in
  let n = ref 0 and busy = ref false in
  let bus = Simnvm.Memsys.bus mem in
  let sub =
    Simnvm.Event.subscribe bus (fun ev ->
        if (not !busy) && persist_event ~nvm_words:nw ev then begin
          let k = !n in
          incr n;
          busy := true;
          at k ev;
          busy := false
        end)
  in
  Fun.protect ~finally:(fun () -> Simnvm.Event.unsubscribe bus sub) run

type fingerprint = { completed : int; dirty : int }

let mix h v = (h lxor v) * 0x100000001b3

(* A closed function over an immediate accumulator: the fold that calls
   it allocates nothing. *)
let mix_line h lineno mask words =
  let h = ref (mix (mix h lineno) mask) in
  for i = 0 to Array.length words - 1 do
    h := mix !h words.(i)
  done;
  !h

let fingerprint mem ~completed =
  { completed; dirty = Simnvm.Memsys.fold_dirty_nvm mem mix_line 0 }

let pilot mem ~completed run =
  let acc = ref [] in
  walk mem run ~at:(fun _ _ ->
      acc := fingerprint mem ~completed:(completed ()) :: !acc);
  Array.of_list (List.rev !acc)
