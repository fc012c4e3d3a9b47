type scale = {
  label : string;
  sweep_threads : int list;
  duration_ns : float;
  map_prefill : int;
  buckets : int;
  queue_prefill : int;
  period_ns : float;
  fig10_threads : int;
  fig11_periods_ns : float list;
  fig12_buckets : int list;
  recovery_threads : int;
}

let small =
  {
    label = "small";
    sweep_threads = [ 1; 4; 16; 64 ];
    duration_ns = 3.0e6 (* 3 checkpoint periods *);
    map_prefill = 80_000;
    buckets = 40_000;
    queue_prefill = 1_000;
    period_ns = 1.0e6 (* 1 ms; epochs span >1k ops/thread *);
    fig10_threads = 64;
    fig11_periods_ns =
      [ 2_000.0; 4_000.0; 8_000.0; 16_000.0; 64_000.0; 256_000.0;
        1_024_000.0 ];
    fig12_buckets = [ 4_000; 16_000; 64_000; 256_000 ];
    recovery_threads = 32;
  }

let paper =
  {
    label = "paper";
    sweep_threads = [ 1; 4; 8; 16; 32; 64 ];
    duration_ns = 200.0e6 (* >3 paper-scale periods *);
    map_prefill = 1_000_000;
    buckets = 1_000_000;
    queue_prefill = 1_000;
    period_ns = 64.0e6;
    fig10_threads = 64;
    fig11_periods_ns =
      [ 1.0e6; 2.0e6; 4.0e6; 8.0e6; 16.0e6; 32.0e6; 64.0e6 ];
    fig12_buckets = [ 500_000; 1_000_000; 2_000_000; 4_000_000 ];
    recovery_threads = 32;
  }

let params_for (s : scale) ~threads ~kind:_ =
  let pow2_above n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 4096
  in
  let max_threads = threads + 1 in
  let registry_per_slot =
    pow2_above
      ((s.map_prefill * 3 / threads)
      + (int_of_float s.duration_ns / 120)
      + 8_192)
  in
  let need =
    (s.buckets * 16) + (s.map_prefill * 24)
    + (max_threads * registry_per_slot)
    + (1 lsl 20)
  in
  let nvm_words = pow2_above need in
  {
    Systems.default_params with
    Systems.max_threads;
    period_ns = s.period_ns;
    (* one flusher thread per program thread, as in the paper (section 5) *)
    flusher_pool = threads;
    buckets = s.buckets;
    nvm_words;
    dram_words = nvm_words / 2;
    registry_per_slot;
    (* The single simulated cache stands for private caches plus an LLC
       slice per core: its capacity scales with the thread count (16 KiB
       per thread, 64 KiB minimum) so per-thread hot state stays resident
       as it does on real hardware. *)
    cache_sets = max 32 (4 * threads);
    cache_ways = 16;
  }

type workload = Map of int | Queue

let checkpoint_extra rt =
  match rt with
  | None -> []
  | Some rt ->
      let cs = Respct.Runtime.stats rt in
      let eff = Respct.Runtime.mean_effective_period rt in
      [
        ("checkpoints", Obs.Json.Int cs.Respct.Runtime.checkpoints);
        ("flushed_addrs", Obs.Json.Int cs.Respct.Runtime.flushed_addrs);
        ("flush_ns", Obs.Json.Float cs.Respct.Runtime.flush_ns);
        ("stall_ns", Obs.Json.Float cs.Respct.Runtime.stall_ns);
        ("overlap_ns", Obs.Json.Float cs.Respct.Runtime.overlap_ns);
        ( "effective_period_ns",
          if Float.is_nan eff then Obs.Json.Null else Obs.Json.Float eff );
      ]

(* The probes attach to the world before the workload runs: a Memobs
   counter registry on the memory's bus, reset at the measurement-window
   start, and span profiling on the ResPCT runtime. *)
let point ?params (s : scale) kind w ~threads =
  let p =
    match params with Some p -> p | None -> params_for s ~threads ~kind
  in
  let registry = Obs.Metrics.create () and spans = Obs.Span.create () in
  let instrument env rt =
    ignore (Obs.Memobs.attach registry (Simsched.Env.mem env));
    Option.iter (fun rt -> Respct.Runtime.set_spans rt spans) rt
  in
  let on_window () = Obs.Metrics.reset registry in
  let env, rt, r, mix =
    match w with
    | Map update_pct ->
        let sched, env, rt, build = Systems.map_system p kind in
        instrument env rt;
        let wl =
          {
            Workload.nthreads = threads;
            duration_ns = s.duration_ns;
            key_space = 2 * s.buckets;
            update_pct;
            prefill = s.map_prefill;
            seed = p.Systems.seed;
          }
        in
        ( env,
          rt,
          Workload.run_map ~mem:(Simsched.Env.mem env) ~on_window ~sched
            ~params:wl ~build (),
          [ ("update_pct", Obs.Json.Int update_pct) ] )
    | Queue ->
        let sched, env, rt, build = Systems.queue_system p kind in
        instrument env rt;
        let wl =
          {
            Workload.q_nthreads = threads;
            q_duration_ns = s.duration_ns;
            q_prefill = s.queue_prefill;
            q_seed = p.Systems.seed;
          }
        in
        ( env,
          rt,
          Workload.run_queue ~mem:(Simsched.Env.mem env) ~on_window ~sched
            ~params:wl ~build (),
          [] )
  in
  Obs.Run.point
    ~params:
      (("system", Obs.Json.String (Systems.name_of kind))
      :: ("threads", Obs.Json.Int threads)
      :: mix)
    ~throughput_mops:r.Workload.mops
    ~stats:(Simnvm.Memsys.stats (Simsched.Env.mem env))
    ~metrics:registry ~spans
    ~extra:
      (("total_ops", Obs.Json.Int r.Workload.total_ops)
      :: ("elapsed_ns", Obs.Json.Float r.Workload.elapsed_ns)
      :: checkpoint_extra rt)
    (Systems.name_of kind)

let point_mops (pt : Obs.Run.point) =
  match pt.Obs.Run.throughput_mops with Some x -> x | None -> nan

let point_extra_float pt key =
  match List.assoc_opt key pt.Obs.Run.extra with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | _ -> nan

let point_extra_int pt key =
  match List.assoc_opt key pt.Obs.Run.extra with
  | Some (Obs.Json.Int i) -> i
  | _ -> 0
