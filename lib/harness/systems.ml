type params = {
  max_threads : int;
  period_ns : float;
  flusher_pool : int;
  buckets : int;
  nvm_words : int;
  dram_words : int;
  seed : int;
  cache_sets : int;
  cache_ways : int;
  mode : Respct.Runtime.mode;
  registry_per_slot : int;
  eadr : bool;
  integrity : bool;
  pipeline : bool;
}

let default_params =
  {
    max_threads = 65;
    period_ns = 64.0e6;
    flusher_pool = 8;
    buckets = 1 lsl 14;
    nvm_words = 1 lsl 22;
    dram_words = 1 lsl 21;
    seed = 42;
    cache_sets = 256;
    cache_ways = 4;
    mode = Respct.Runtime.Full;
    registry_per_slot = 1 lsl 14;
    eadr = false;
    integrity = false;
    pipeline = false;
  }

type kind =
  | Transient_dram
  | Transient_nvm
  | Respct
  | Pmthreads
  | Montage
  | Clobber
  | Quadra
  | Soft
  | Dali
  | Friedman

let name_of = function
  | Transient_dram -> "Transient<DRAM>"
  | Transient_nvm -> "Transient<NVMM>"
  | Respct -> "ResPCT"
  | Pmthreads -> "PMThreads"
  | Montage -> "Montage"
  | Clobber -> "Clobber-NVM"
  | Quadra -> "Quadra/Trinity"
  | Soft -> "SOFT"
  | Dali -> "Dali"
  | Friedman -> "FriedmanQueue"

let map_kinds =
  [ Transient_dram; Transient_nvm; Respct; Pmthreads; Montage; Clobber;
    Quadra; Soft; Dali ]

let queue_kinds =
  [ Transient_dram; Transient_nvm; Respct; Pmthreads; Montage; Clobber;
    Quadra; Friedman ]

(* Every evaluated world runs line-granular (PCSO) write-back at the
   memory's default spontaneous-eviction rate, under a 50 ns scheduler
   quantum; the crash matrix builds its word-granular ablation through
   its own [Memsys] config. *)
let quantum = 50.0

let world (p : params) ~kind =
  let latency =
    let base =
      match kind with
      | Transient_dram -> Simnvm.Latency.dram_only
      | _ -> Simnvm.Latency.default
    in
    if p.eadr then Simnvm.Latency.eadr_of base else base
  in
  let mem =
    Simnvm.Memsys.create
      {
        Simnvm.Memsys.default_config with
        Simnvm.Memsys.nvm_words = p.nvm_words;
        dram_words = p.dram_words;
        sets = p.cache_sets;
        ways = p.cache_ways;
        latency;
        seed = p.seed;
        eadr = p.eadr;
      }
  in
  let sched = Simsched.Scheduler.create ~seed:p.seed ~quantum () in
  let env = Simsched.Env.make mem sched in
  (mem, sched, env)

let rt_cfg (p : params) =
  {
    Respct.Runtime.period_ns = p.period_ns;
    flusher_pool = p.flusher_pool;
    mode = p.mode;
    max_threads = p.max_threads;
    registry_per_slot = p.registry_per_slot;
    integrity = p.integrity;
    pipeline = p.pipeline;
  }

(* Arena for the transient structures: the NVMM region (Transient<NVMM>)
   or the DRAM region (Transient<DRAM>). *)
let transient_mem env ~kind =
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem env) in
  let lw = mcfg.Simnvm.Memsys.line_words in
  let base, limit =
    match kind with
    | Transient_dram ->
        ( mcfg.Simnvm.Memsys.nvm_words,
          mcfg.Simnvm.Memsys.nvm_words + mcfg.Simnvm.Memsys.dram_words )
    | _ -> (lw, mcfg.Simnvm.Memsys.nvm_words)
  in
  Pds.Mem_iface.of_env_bump env (Pds.Bump.create env ~base ~limit)

(* How [Workload.run_map] and [Workload.run_queue] register threads with
   a ResPCT runtime and let it checkpoint. *)
let respct_system rt =
  {
    Pds.Ops.sys_register = (fun ~slot -> Respct.Runtime.register rt ~slot);
    sys_deregister = (fun ~slot -> Respct.Runtime.deregister rt ~slot);
    sys_allow = (fun ~slot -> Respct.Runtime.checkpoint_allow rt ~slot);
    sys_prevent =
      (fun ~slot -> Respct.Runtime.checkpoint_prevent_nolock rt ~slot);
    sys_stop = (fun () -> Respct.Runtime.stop rt);
  }

let map_system (p : params) kind =
  let _mem, sched, env = world p ~kind in
  match kind with
  | Transient_dram | Transient_nvm ->
      let build () =
        let m = Pds.Hashmap_transient.create env (transient_mem env ~kind) ~buckets:p.buckets in
        (Pds.Hashmap_transient.ops m, Pds.Ops.null_system)
      in
      (sched, env, None, build)
  | Respct ->
      let rt = Respct.Runtime.create ~cfg:(rt_cfg p) env in
      Respct.Runtime.start rt;
      let build () =
        let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:p.buckets in
        (Pds.Hashmap_respct.ops m, respct_system rt)
      in
      (sched, env, Some rt, build)
  | Pmthreads ->
      let build () =
        Baselines.Pmthreads.make_map env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
          ~buckets:p.buckets
      in
      (sched, env, None, build)
  | Montage ->
      let build () =
        Baselines.Montage.make_map env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
          ~buckets:p.buckets
      in
      (sched, env, None, build)
  | Clobber ->
      let build () =
        Baselines.Durlin.make_map env ~policy:Baselines.Fatomic.Clobber
          ~max_threads:p.max_threads ~buckets:p.buckets
      in
      (sched, env, None, build)
  | Quadra ->
      let build () =
        Baselines.Durlin.make_map env ~policy:Baselines.Fatomic.Quadra
          ~max_threads:p.max_threads ~buckets:p.buckets
      in
      (sched, env, None, build)
  | Soft ->
      let build () = Baselines.Soft.make_map env ~buckets:p.buckets in
      (sched, env, None, build)
  | Dali ->
      let build () =
        Baselines.Dali.make_map env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
          ~buckets:p.buckets
      in
      (sched, env, None, build)
  | Friedman -> invalid_arg "Systems.map_system: FriedmanQueue is a queue"

let queue_system (p : params) kind =
  let _mem, sched, env = world p ~kind in
  match kind with
  | Transient_dram | Transient_nvm ->
      let build () =
        let q = Pds.Queue_transient.create env (transient_mem env ~kind) in
        (Pds.Queue_transient.ops q, Pds.Ops.null_system)
      in
      (sched, env, None, build)
  | Respct ->
      let rt = Respct.Runtime.create ~cfg:(rt_cfg p) env in
      Respct.Runtime.start rt;
      let build () =
        let q = Pds.Queue_respct.create rt ~slot:0 in
        (Pds.Queue_respct.ops q, respct_system rt)
      in
      (sched, env, Some rt, build)
  | Pmthreads ->
      let build () =
        Baselines.Pmthreads.make_queue env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
      in
      (sched, env, None, build)
  | Montage ->
      let build () =
        Baselines.Montage.make_queue env ~max_threads:p.max_threads
          ~period_ns:p.period_ns ~flusher_pool:p.flusher_pool
      in
      (sched, env, None, build)
  | Clobber ->
      let build () =
        Baselines.Durlin.make_queue env ~policy:Baselines.Fatomic.Clobber
          ~max_threads:p.max_threads
      in
      (sched, env, None, build)
  | Quadra ->
      let build () =
        Baselines.Durlin.make_queue env ~policy:Baselines.Fatomic.Quadra
          ~max_threads:p.max_threads
      in
      (sched, env, None, build)
  | Friedman ->
      let build () = Baselines.Friedman_queue.make_queue env in
      (sched, env, None, build)
  | Soft | Dali -> invalid_arg "Systems.queue_system: map-only system"
