(* Event counters of the simulated memory system. *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable hits : int;
  mutable dram_misses : int;
  mutable nvm_misses : int;
  mutable dram_writebacks : int;
  mutable nvm_writebacks : int;
  mutable pwbs : int;
  mutable psyncs : int;
  mutable spontaneous_evictions : int;
  mutable crashes : int;
  mutable faults_injected : int;
  mutable media_errors : int;
  mutable media_scrubs : int;
}

let create () =
  {
    loads = 0;
    stores = 0;
    hits = 0;
    dram_misses = 0;
    nvm_misses = 0;
    dram_writebacks = 0;
    nvm_writebacks = 0;
    pwbs = 0;
    psyncs = 0;
    spontaneous_evictions = 0;
    crashes = 0;
    faults_injected = 0;
    media_errors = 0;
    media_scrubs = 0;
  }

let reset t =
  t.loads <- 0;
  t.stores <- 0;
  t.hits <- 0;
  t.dram_misses <- 0;
  t.nvm_misses <- 0;
  t.dram_writebacks <- 0;
  t.nvm_writebacks <- 0;
  t.pwbs <- 0;
  t.psyncs <- 0;
  t.spontaneous_evictions <- 0;
  t.crashes <- 0;
  t.faults_injected <- 0;
  t.media_errors <- 0;
  t.media_scrubs <- 0

(* The reference fold from the event stream to the counters. Memsys bumps
   its counters inline instead, for speed; folding this over the events it
   published in a window must give the same deltas (test_crashtest holds
   the two equal over a ResPCT world with crash and recovery). *)
let subscriber t (ev : Event.t) =
  match ev with
  | Event.Load _ -> t.loads <- t.loads + 1
  | Event.Store _ -> t.stores <- t.stores + 1
  | Event.Hit _ -> t.hits <- t.hits + 1
  | Event.Miss { backing = Event.Dram; _ } ->
      t.dram_misses <- t.dram_misses + 1
  | Event.Miss { backing = Event.Nvm; _ } -> t.nvm_misses <- t.nvm_misses + 1
  | Event.Writeback { backing = Event.Dram; _ } ->
      t.dram_writebacks <- t.dram_writebacks + 1
  | Event.Writeback { backing = Event.Nvm; _ } ->
      t.nvm_writebacks <- t.nvm_writebacks + 1
  | Event.Pwb _ -> t.pwbs <- t.pwbs + 1
  | Event.Psync _ -> t.psyncs <- t.psyncs + 1
  | Event.Eviction _ ->
      t.spontaneous_evictions <- t.spontaneous_evictions + 1
  | Event.Crash _ -> t.crashes <- t.crashes + 1
  | Event.Fault_injected _ -> t.faults_injected <- t.faults_injected + 1
  | Event.Media_error _ -> t.media_errors <- t.media_errors + 1
  | Event.Media_scrub _ -> t.media_scrubs <- t.media_scrubs + 1
  | Event.Rmw _ | Event.Compute _ | Event.Acquire _ | Event.Release _
  | Event.Restart_point _ ->
      ()

let accesses t = t.loads + t.stores
