type app_scale = {
  matmul_n : int;
  lr_points : int;
  swaptions : int;
  dedup_chunks : int;
  kv_load : int;
  kv_run : int;
  kv_keys : int;
  app_threads : int;
  period_ns : float;
}

let small =
  {
    matmul_n = 96;
    lr_points = 400_000;
    swaptions = 6_000;
    dedup_chunks = 8_000;
    kv_load = 15_000;
    kv_run = 45_000;
    kv_keys = 15_000;
    app_threads = 64;
    period_ns = 250_000.0;
  }

let paper =
  {
    matmul_n = 96;
    lr_points = 2_000_000;
    swaptions = 1024;
    dedup_chunks = 100_000;
    kv_load = 1_000_000;
    kv_run = 1_000_000;
    kv_keys = 1_000_000;
    app_threads = 64;
    period_ns = 64.0e6;
  }

type variant = App_dram | App_nvm | App_respct

let variant_name = function
  | App_dram -> "Transient<DRAM>"
  | App_nvm -> "Transient<NVMM>"
  | App_respct -> "ResPCT"

let app_world (s : app_scale) variant ~nthreads ~nvm_words =
  let p =
    {
      Systems.default_params with
      Systems.max_threads = nthreads + 1;
      period_ns = s.period_ns;
      nvm_words;
      dram_words = nvm_words;
      registry_per_slot = 1 lsl 14;
      cache_sets = max 32 (4 * nthreads);
      cache_ways = 16;
      flusher_pool = nthreads;
    }
  in
  let kind =
    match variant with
    | App_dram -> Systems.Transient_dram
    | App_nvm | App_respct -> Systems.Transient_nvm
  in
  let _mem, _sched, env = Systems.world p ~kind in
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem env) in
  let lw = mcfg.Simnvm.Memsys.line_words in
  match variant with
  | App_respct ->
      let rt = Respct.Runtime.create ~cfg:(Systems.rt_cfg p) env in
      Respct.Runtime.start rt;
      (* transient arena unused by durable apps, but harmless to provide *)
      let bump = Pds.Bump.create env ~base:lw ~limit:(mcfg.Simnvm.Memsys.nvm_words / 2) in
      (env, Apps.App_env.Durable rt, bump)
  | App_dram ->
      let base = mcfg.Simnvm.Memsys.nvm_words in
      let bump =
        Pds.Bump.create env ~base ~limit:(base + mcfg.Simnvm.Memsys.dram_words)
      in
      (env, Apps.App_env.Transient, bump)
  | App_nvm ->
      let bump =
        Pds.Bump.create env ~base:lw ~limit:(mcfg.Simnvm.Memsys.nvm_words / 2)
      in
      (env, Apps.App_env.Transient, bump)

let run_app (s : app_scale) variant = function
  | `Matmul ->
      let cfg = { Apps.Matmul.n = s.matmul_n; nthreads = s.app_threads } in
      let env, p, bump = app_world s variant ~nthreads:s.app_threads ~nvm_words:(1 lsl 21) in
      fst (Apps.Matmul.run env p cfg ~bump)
  | `Linreg naive ->
      let cfg =
        {
          Apps.Linreg.points = s.lr_points;
          nthreads = s.app_threads;
          granularity = (if naive then `Per_point else `Per_batch 1000);
        }
      in
      let env, p, bump = app_world s variant ~nthreads:s.app_threads ~nvm_words:(1 lsl 23) in
      fst (Apps.Linreg.run env p cfg ~bump)
  | `Swaptions naive ->
      let cfg =
        {
          Apps.Swaptions.swaptions = s.swaptions;
          trials = 60;
          nthreads = s.app_threads;
          granularity = (if naive then `Per_trial else `Per_swaption);
        }
      in
      let env, p, bump = app_world s variant ~nthreads:s.app_threads ~nvm_words:(1 lsl 21) in
      fst (Apps.Swaptions.run env p cfg ~bump)
  | `Dedup ->
      let cfg =
        {
          Apps.Dedup.default_cfg with
          Apps.Dedup.chunks = s.dedup_chunks;
          distinct = s.dedup_chunks / 4;
        }
      in
      let env, p, _bump = app_world s variant ~nthreads:64 ~nvm_words:(1 lsl 21) in
      fst (Apps.Dedup.run env p cfg)

let run_kv (s : app_scale) variant mix =
  let cfg =
    {
      Apps.Kvstore.default_cfg with
      Apps.Kvstore.keys = s.kv_keys;
      buckets = s.kv_keys;
      load_ops = s.kv_load;
      run_ops = s.kv_run;
      mix;
    }
  in
  let env, p, _bump =
    app_world s variant
      ~nthreads:(cfg.Apps.Kvstore.clients + cfg.Apps.Kvstore.workers)
      ~nvm_words:(1 lsl 22)
  in
  Apps.Kvstore.run env p cfg
