type t = {
  loads : Metrics.counter;
  stores : Metrics.counter;
  hits : Metrics.counter;
  dram_misses : Metrics.counter;
  nvm_misses : Metrics.counter;
  prefetched_misses : Metrics.counter;
  dram_writebacks : Metrics.counter;
  nvm_writebacks : Metrics.counter;
  pwbs : Metrics.counter;
  clean_pwbs : Metrics.counter;
  psyncs : Metrics.counter;
  noop_psyncs : Metrics.counter;
  mutable flush_armed : bool;
      (* a dirty pwb was issued since the last psync: the next psync
         actually retires something. Clean pwbs don't arm — fencing
         them is exactly the no-op the static Psync_no_pending rule
         flags. *)
  evictions : Metrics.counter;
  crashes : Metrics.counter;
  faults_torn : Metrics.counter;
  faults_poisoned : Metrics.counter;
  faults_bitflip : Metrics.counter;
  faults_transient : Metrics.counter;
  media_errors : Metrics.counter;
  media_errors_transient : Metrics.counter;
  media_scrubs : Metrics.counter;
}

let make registry =
  let c name = Metrics.counter registry ("mem." ^ name) in
  (* Registration order is export order; record-field evaluation order is
     unspecified, so create the counters in explicit sequence. *)
  let loads = c "loads" in
  let stores = c "stores" in
  let hits = c "hits" in
  let dram_misses = c "misses.dram" in
  let nvm_misses = c "misses.nvm" in
  let prefetched_misses = c "misses.prefetched" in
  let dram_writebacks = c "writebacks.dram" in
  let nvm_writebacks = c "writebacks.nvm" in
  let pwbs = c "pwbs" in
  let clean_pwbs = c "pwbs.clean" in
  let psyncs = c "psyncs" in
  let noop_psyncs = c "psyncs.noop" in
  let evictions = c "evictions" in
  let crashes = c "crashes" in
  let faults_torn = c "faults.torn" in
  let faults_poisoned = c "faults.poisoned" in
  let faults_bitflip = c "faults.bitflip" in
  let faults_transient = c "faults.transient" in
  let media_errors = c "media_errors" in
  let media_errors_transient = c "media_errors.transient" in
  let media_scrubs = c "media_scrubs" in
  {
    loads;
    stores;
    hits;
    dram_misses;
    nvm_misses;
    prefetched_misses;
    dram_writebacks;
    nvm_writebacks;
    pwbs;
    clean_pwbs;
    psyncs;
    noop_psyncs;
    flush_armed = false;
    evictions;
    crashes;
    faults_torn;
    faults_poisoned;
    faults_bitflip;
    faults_transient;
    media_errors;
    media_errors_transient;
    media_scrubs;
  }

let subscriber p (ev : Simnvm.Event.t) =
  match ev with
  | Simnvm.Event.Load _ -> Metrics.incr p.loads
  | Simnvm.Event.Store _ -> Metrics.incr p.stores
  | Simnvm.Event.Hit _ -> Metrics.incr p.hits
  | Simnvm.Event.Miss { backing; prefetched; _ } ->
      (match backing with
      | Simnvm.Event.Dram -> Metrics.incr p.dram_misses
      | Simnvm.Event.Nvm -> Metrics.incr p.nvm_misses);
      if prefetched then Metrics.incr p.prefetched_misses
  | Simnvm.Event.Writeback { backing = Simnvm.Event.Dram; _ } ->
      Metrics.incr p.dram_writebacks
  | Simnvm.Event.Writeback { backing = Simnvm.Event.Nvm; _ } ->
      Metrics.incr p.nvm_writebacks
  | Simnvm.Event.Pwb { dirty; _ } ->
      Metrics.incr p.pwbs;
      if dirty then p.flush_armed <- true
      else Metrics.incr p.clean_pwbs
  | Simnvm.Event.Psync _ ->
      Metrics.incr p.psyncs;
      if not p.flush_armed then Metrics.incr p.noop_psyncs;
      p.flush_armed <- false
  | Simnvm.Event.Eviction _ -> Metrics.incr p.evictions
  | Simnvm.Event.Crash _ -> Metrics.incr p.crashes
  | Simnvm.Event.Fault_injected f -> (
      match f with
      | Simnvm.Event.Torn _ -> Metrics.incr p.faults_torn
      | Simnvm.Event.Poisoned _ -> Metrics.incr p.faults_poisoned
      | Simnvm.Event.Bitflip _ -> Metrics.incr p.faults_bitflip
      | Simnvm.Event.Transient_armed _ -> Metrics.incr p.faults_transient)
  | Simnvm.Event.Media_error { transient; _ } ->
      Metrics.incr p.media_errors;
      if transient then Metrics.incr p.media_errors_transient
  | Simnvm.Event.Media_scrub _ -> Metrics.incr p.media_scrubs
  | Simnvm.Event.Rmw _ | Simnvm.Event.Compute _ | Simnvm.Event.Acquire _
  | Simnvm.Event.Release _ | Simnvm.Event.Restart_point _ ->
      ()

let attach registry mem =
  let p = make registry in
  (p, Simnvm.Event.subscribe (Simnvm.Memsys.bus mem) (subscriber p))
