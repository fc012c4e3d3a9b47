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

let map_point ?(update_pct = 50) ?params (s : scale) kind ~threads =
  let p =
    match params with Some p -> p | None -> params_for s ~threads ~kind
  in
  let sched, env, rt, build = Systems.map_system p kind in
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
  let r = Workload.run_map ~mem:(Simsched.Env.mem env) ~sched ~params:wl ~build () in
  (r, rt)

let queue_point ?params (s : scale) kind ~threads =
  let p =
    match params with Some p -> p | None -> params_for s ~threads ~kind
  in
  let sched, env, rt, build = Systems.queue_system p kind in
  let wl =
    {
      Workload.q_nthreads = threads;
      q_duration_ns = s.duration_ns;
      q_prefill = s.queue_prefill;
      q_seed = p.Systems.seed;
    }
  in
  let r =
    Workload.run_queue ~mem:(Simsched.Env.mem env) ~sched ~params:wl ~build ()
  in
  (r, rt)

(* ------------------------------------------------------------------ *)
(* Instrumented points *)

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

let workload_extra (r : Workload.result) =
  [
    ("total_ops", Obs.Json.Int r.Workload.total_ops);
    ("elapsed_ns", Obs.Json.Float r.Workload.elapsed_ns);
  ]

let instrument env rt =
  let mem = Simsched.Env.mem env in
  let registry = Obs.Metrics.create () in
  ignore (Obs.Memobs.attach registry mem);
  let spans = Obs.Span.create () in
  Option.iter (fun rt -> Respct.Runtime.set_spans rt spans) rt;
  (registry, spans, fun () -> Obs.Metrics.reset registry)

let map_point_obs ?(update_pct = 50) ?params (s : scale) kind ~threads =
  let p =
    match params with Some p -> p | None -> params_for s ~threads ~kind
  in
  let sched, env, rt, build = Systems.map_system p kind in
  let registry, spans, reset = instrument env rt in
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
  let r =
    Workload.run_map ~mem:(Simsched.Env.mem env) ~on_window:reset ~sched
      ~params:wl ~build ()
  in
  Obs.Run.point
    ~params:
      [
        ("system", Obs.Json.String (Systems.name_of kind));
        ("threads", Obs.Json.Int threads);
        ("update_pct", Obs.Json.Int update_pct);
      ]
    ~throughput_mops:r.Workload.mops
    ~stats:(Simnvm.Memsys.stats (Simsched.Env.mem env))
    ~metrics:registry ~spans
    ~extra:(workload_extra r @ checkpoint_extra rt)
    (Systems.name_of kind)

let queue_point_obs ?params (s : scale) kind ~threads =
  let p =
    match params with Some p -> p | None -> params_for s ~threads ~kind
  in
  let sched, env, rt, build = Systems.queue_system p kind in
  let registry, spans, reset = instrument env rt in
  let wl =
    {
      Workload.q_nthreads = threads;
      q_duration_ns = s.duration_ns;
      q_prefill = s.queue_prefill;
      q_seed = p.Systems.seed;
    }
  in
  let r =
    Workload.run_queue ~mem:(Simsched.Env.mem env) ~on_window:reset ~sched
      ~params:wl ~build ()
  in
  Obs.Run.point
    ~params:
      [
        ("system", Obs.Json.String (Systems.name_of kind));
        ("threads", Obs.Json.Int threads);
      ]
    ~throughput_mops:r.Workload.mops
    ~stats:(Simnvm.Memsys.stats (Simsched.Env.mem env))
    ~metrics:registry ~spans
    ~extra:(workload_extra r @ checkpoint_extra rt)
    (Systems.name_of kind)

let point_mops (pt : Obs.Run.point) =
  match pt.Obs.Run.throughput_mops with Some x -> x | None -> nan

(* ------------------------------------------------------------------ *)
(* Figures 8 and 9 *)

let fig8_points scale =
  List.map
    (fun update_pct ->
      ( update_pct,
        List.map
          (fun kind ->
            ( Systems.name_of kind,
              List.map
                (fun threads -> map_point_obs ~update_pct scale kind ~threads)
                scale.sweep_threads ))
          Systems.map_kinds ))
    [ 10; 50; 90 ]

let fig9_points scale =
  List.map
    (fun kind ->
      ( Systems.name_of kind,
        List.map
          (fun threads -> queue_point_obs scale kind ~threads)
          scale.sweep_threads ))
    Systems.queue_kinds

(* ------------------------------------------------------------------ *)
(* Integrity tax *)

let integrity_points ?(scale = small) ?threads () =
  let sweep = Option.value ~default:scale.sweep_threads threads in
  let kind = Systems.Respct in
  let run ~integrity w ~threads =
    (* The integrity layout additionally reserves one regsum word per
       registry entry; give *both* arms the doubled NVMM so the geometry
       (and hence the cache behaviour) stays identical across the pair. *)
    let p = params_for scale ~threads ~kind in
    let p =
      { p with Systems.nvm_words = 2 * p.Systems.nvm_words; integrity }
    in
    match w with
    | `Queue -> queue_point_obs ~params:p scale kind ~threads
    | `Map update_pct ->
        map_point_obs ~update_pct ~params:p scale kind ~threads
  in
  List.map
    (fun (wname, w) ->
      ( wname,
        List.map
          (fun threads ->
            ( threads,
              run ~integrity:false w ~threads,
              run ~integrity:true w ~threads ))
          sweep ))
    [ ("Queue", `Queue); ("HashMap", `Map 50) ]

let integrity_overhead_rows pts =
  List.map
    (fun (wname, cells) ->
      ( wname,
        List.map
          (fun (_threads, off, on) ->
            let raw = point_mops off and sealed = point_mops on in
            Printf.sprintf "%s/%s (%+.1f%%)" (Table.fmt_mops sealed)
              (Table.fmt_mops raw)
              (100.0 *. ((sealed -. raw) /. raw)))
          cells ))
    pts

(* ------------------------------------------------------------------ *)
(* Figures 10, 11 and 12 *)

let fig10_points scale =
  let threads = scale.fig10_threads in
  let workloads =
    [ ("Queue", `Queue); ("HashMap-RI", `Map 10); ("HashMap-WI", `Map 90) ]
  in
  let run kind ~mode w =
    let p = { (params_for scale ~threads ~kind) with Systems.mode } in
    match w with
    | `Queue -> queue_point_obs ~params:p scale kind ~threads
    | `Map update_pct ->
        map_point_obs ~update_pct ~params:p scale kind ~threads
  in
  let configs =
    [
      ("Transient<DRAM>", Systems.Transient_dram, Respct.Runtime.Full);
      ("Transient<NVMM>", Systems.Transient_nvm, Respct.Runtime.Full);
      ("ResPCT-InCLL", Systems.Respct, Respct.Runtime.Incll_only);
      ("ResPCT-noFlush", Systems.Respct, Respct.Runtime.No_flush);
      ("ResPCT", Systems.Respct, Respct.Runtime.Full);
    ]
  in
  List.map
    (fun (cname, kind, mode) ->
      ( cname,
        List.map (fun (wname, w) -> (wname, run kind ~mode w)) workloads ))
    configs

let point_eff (pt : Obs.Run.point) =
  match List.assoc_opt "effective_period_ns" pt.Obs.Run.extra with
  | Some (Obs.Json.Float f) -> f
  | _ -> nan

let fig11_points scale =
  let threads = scale.fig10_threads in
  let base =
    map_point_obs ~update_pct:90 scale Systems.Transient_dram ~threads
  in
  let sweep =
    List.map
      (fun period_ns ->
        let p =
          {
            (params_for scale ~threads ~kind:Systems.Respct) with
            Systems.period_ns;
          }
        in
        ( period_ns,
          map_point_obs ~update_pct:90 ~params:p scale Systems.Respct ~threads
        ))
      scale.fig11_periods_ns
  in
  (base, sweep)

let fig12_points scale =
  List.map
    (fun buckets ->
      let s = { scale with buckets; map_prefill = buckets * 2 } in
      let threads = 8 in
      let p = params_for s ~threads ~kind:Systems.Respct in
      let sched, env, _rt, build = Systems.map_system p Systems.Respct in
      let wl =
        {
          Workload.nthreads = threads;
          duration_ns = infinity (* run until the crash *);
          key_space = 2 * s.buckets;
          update_pct = 90;
          prefill = s.map_prefill;
          seed = p.Systems.seed;
        }
      in
      (* Crash roughly 1.5 periods after the prefill finishes: prefill time
         is unknown in advance, so run a probe first? Instead: crash far
         enough to cover prefill + one checkpoint for all sizes. *)
      let crash_at =
        (float_of_int s.map_prefill *. 400.0) +. (2.5 *. p.Systems.period_ns)
      in
      Simsched.Scheduler.set_crash_at sched crash_at;
      (try ignore (Workload.run_map ~sched ~params:wl ~build ())
       with Failure _ -> ());
      let mem = Simsched.Env.mem env in
      Simnvm.Memsys.crash mem;
      let layout =
        Respct.Layout.v
          ~line_words:(Simnvm.Memsys.config mem).Simnvm.Memsys.line_words
          ~nvm_words:p.Systems.nvm_words ~max_threads:p.Systems.max_threads
          ~registry_per_slot:p.Systems.registry_per_slot ()
      in
      let spans = Obs.Span.create () in
      let rep =
        Respct.Recovery.run ~threads:scale.recovery_threads ~layout ~spans mem
      in
      Obs.Run.point
        ~params:
          [
            ("buckets", Obs.Json.Int buckets);
            ("recovery_threads", Obs.Json.Int scale.recovery_threads);
          ]
        ~spans
        ~extra:
          [
            ("duration_ns", Obs.Json.Float rep.Respct.Recovery.duration_ns);
            ("scanned", Obs.Json.Int rep.Respct.Recovery.scanned);
            ( "rolled_back",
              Obs.Json.Int (List.length rep.Respct.Recovery.rolled_back) );
            ("failed_epoch", Obs.Json.Int rep.Respct.Recovery.failed_epoch);
          ]
        (string_of_int buckets))
    scale.fig12_buckets

let point_extra_float pt key =
  match List.assoc_opt key pt.Obs.Run.extra with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | _ -> nan

let point_extra_int pt key =
  match List.assoc_opt key pt.Obs.Run.extra with
  | Some (Obs.Json.Int i) -> i
  | _ -> 0
