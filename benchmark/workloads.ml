(* The four benchmark workloads. Each builds its own world from the
   libraries' public functions, runs one measured execution in the calling
   process and checks the program's outputs. It measures every layer from
   outside: it wraps the [Pds.Ops.map] closures, the [Memsys] charge hook
   and the crash explorer's recovery closure, reads [Memsys.stats],
   [Runtime.stats] and the service report, and subscribes to the trace
   bus.

   A pass selects the instrumentation: [Plain] is the measured run;
   [Sampled] adds the stack sampler and checkpoint spans; [Counted] adds
   the exact counters that cost host time on every memory access (the
   trace-bus subscriber and the charge-hook wrapper), so they never skew
   the sampled shares. Passes of one seed must agree on every simulated
   value. *)

type size = Full | Smoke
type pass = Plain | Sampled | Counted

let passes = [ ("plain", Plain); ("sampled", Sampled); ("counted", Counted) ]

type rep = {
  slices : Probe.slice list;
      (** host time of the set-up (world build and prefill) and of the
          measured window, sliced and probed *)
  setups : int;  (** set-ups made in the set-up phase *)
  ops : int;  (** operations completed in the window *)
  attempted : int;
  failed : int;
  errors : string list;  (** failed output checks *)
  values : (string * float) list;  (** named metrics, see {!Catalog} *)
  profile : Sampler.profile option;
  spans : Obs.Json.t option;  (** checkpoint-phase aggregates (virtual time) *)
}

(* Host time is the process's CPU time (user + system): the process is
   single-threaded, so on an idle machine this equals wall time, and it
   leaves out the time other tenants hold the CPU. *)
let cpu_s = Probe.cpu_s

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let per n x = if n = 0 then 0.0 else x /. float_of_int n

(* Host allocation over a window, per operation (the [ocaml] layer). *)
let gc_values ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  [
    ("ocaml.alloc_words_per_op", per ops (words g1 -. words g0));
    ("ocaml.major_words_per_op", per ops (g1.Gc.major_words -. g0.Gc.major_words));
    ( "ocaml.major_collections",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
  ]

type mem_counts = {
  mutable accesses : int;
  mutable hits : int;
  mutable nvm_misses : int;
  mutable nvm_writebacks : int;
  mutable pwbs : int;
  mutable psyncs : int;
}

let no_counts () =
  { accesses = 0; hits = 0; nvm_misses = 0; nvm_writebacks = 0; pwbs = 0; psyncs = 0 }

let add_counts c (s : Simnvm.Stats.t) =
  c.accesses <- c.accesses + Simnvm.Stats.accesses s;
  c.hits <- c.hits + s.Simnvm.Stats.hits;
  c.nvm_misses <- c.nvm_misses + s.Simnvm.Stats.nvm_misses;
  c.nvm_writebacks <- c.nvm_writebacks + s.Simnvm.Stats.nvm_writebacks;
  c.pwbs <- c.pwbs + s.Simnvm.Stats.pwbs;
  c.psyncs <- c.psyncs + s.Simnvm.Stats.psyncs

let mem_values ~ops c =
  let f = float_of_int in
  [
    ("simnvm.accesses_per_op", per ops (f c.accesses));
    ("simnvm.hit_rate", if c.accesses = 0 then 0.0 else f c.hits /. f c.accesses);
    ("simnvm.nvm_misses_per_op", per ops (f c.nvm_misses));
    ("simnvm.nvm_writebacks_per_op", per ops (f c.nvm_writebacks));
    ("simnvm.pwbs_per_op", per ops (f c.pwbs));
    ("simnvm.psyncs_per_op", per ops (f c.psyncs));
  ]

(* Wrap a memory system's charge hook to sum the virtual nanoseconds it
   reports ([acc] is an unboxed float array, so the wrapper allocates
   nothing). The runtime's flusher pool swaps in its own accumulator while
   it flushes, so checkpoint pwbs are not counted: this is the memory time
   charged to the threads themselves. *)
let count_charges mem acc ~on =
  let orig = Simnvm.Memsys.get_charge mem in
  Simnvm.Memsys.set_charge mem (fun ns ->
      if !on then acc.(0) <- acc.(0) +. ns;
      orig ns)

(* Growable unboxed sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

let distinct_keys_in ~what ~key_space bindings =
  (* [bindings] is sorted by key *)
  let rec scan = function
    | (k1, _) :: ((k2, _) :: _ as rest) ->
        if k1 = k2 then [ Printf.sprintf "%s: key %d bound twice" what k1 ]
        else scan rest
    | _ -> []
  in
  let out_of_range =
    List.filter (fun (k, _) -> k < 0 || k >= key_space) bindings
  in
  scan bindings
  @
  match out_of_range with
  | [] -> []
  | (k, _) :: _ ->
      [ Printf.sprintf "%s: key %d outside the key space [0, %d)" what k key_space ]

(* ------------------------------------------------------------------ *)
(* map-write / map-read: the fig8 ResPCT hash map under 64 fibers *)

type map_cfg = {
  threads : int;
  buckets : int;
  prefill : int;
  window_ns : float;
  period_ns : float;
  update_pct : int;
  crash : bool;  (** crash after the window and time the recovery *)
}

let map_cfg size ~update_pct ~crash =
  match size with
  | Full ->
      {
        threads = 64;
        buckets = 40_000;
        prefill = 80_000;
        window_ns = 4.0e6;
        period_ns = 1.0e6;
        update_pct;
        crash;
      }
  | Smoke ->
      {
        threads = 4;
        buckets = 256;
        prefill = 512;
        window_ns = 1.0e5;
        period_ns = 2.5e4;
        update_pct;
        crash;
      }

(* [Harness.Workload.run_map] ends every measured operation with restart
   point 1 and every prefill insert with restart point 2. *)
let window_rp = 1

let recovery_threads = 32

let run_map ?(plant = Fun.id) cfg ~seed ~pass =
  let clock = Probe.start () in
  let scale =
    {
      Harness.Experiments.small with
      Harness.Experiments.buckets = cfg.buckets;
      map_prefill = cfg.prefill;
      duration_ns = cfg.window_ns;
      period_ns = cfg.period_ns;
    }
  in
  let p =
    {
      (Harness.Experiments.params_for scale ~threads:cfg.threads
         ~kind:Harness.Systems.Respct)
      with
      Harness.Systems.seed;
    }
  in
  let mem, sched, env = Harness.Systems.world p ~kind:Harness.Systems.Respct in
  let rt = Respct.Runtime.create ~cfg:(Harness.Systems.rt_cfg p) env in
  Respct.Runtime.start rt;
  let spans = Obs.Span.create () in
  if pass <> Plain then Respct.Runtime.set_spans rt spans;
  let now () = Simsched.Scheduler.now sched in
  let in_window = ref false in
  let charged = [| 0.0 |] in
  let acquires = ref 0 in
  if pass = Counted then begin
    count_charges mem charged ~on:in_window;
    ignore
      (Simsched.Trace.subscribe (Simsched.Scheduler.trace_bus sched) (function
        | Simsched.Trace.Acquire _ when !in_window -> incr acquires
        | _ -> ()))
  end;
  (* Per-slot timing of the operation in flight; op kinds index
     [kind_ns]: 0 insert, 1 remove, 2 search. *)
  let op_start = Array.make cfg.threads 0.0 in
  let op_ns = Array.make cfg.threads 0.0 in
  let op_kind = Array.make cfg.threads 0 in
  let kind_ns = Array.make 3 0.0 and kind_n = Array.make 3 0 in
  let rp_wait = [| 0.0 |] in
  let latency = Samples.create () in
  let inserted = ref 0 and removed = ref 0 in
  let timed kind slot f =
    let t = now () in
    op_start.(slot) <- t;
    let r = f () in
    op_ns.(slot) <- now () -. t;
    op_kind.(slot) <- kind;
    r
  in
  let instrument (o : Pds.Ops.map) =
    {
      Pds.Ops.insert =
        (fun ~slot ~key ~value ->
          let r = timed 0 slot (fun () -> o.Pds.Ops.insert ~slot ~key ~value) in
          if r then incr inserted;
          r);
      remove =
        (fun ~slot ~key ->
          let r = timed 1 slot (fun () -> o.Pds.Ops.remove ~slot ~key) in
          if r then incr removed;
          r);
      search = (fun ~slot ~key -> timed 2 slot (fun () -> o.Pds.Ops.search ~slot ~key));
      map_rp =
        (fun ~slot ~id ->
          let t = now () in
          o.Pds.Ops.map_rp ~slot ~id;
          if id = window_rp then begin
            let t' = now () in
            Samples.add latency (t' -. op_start.(slot));
            rp_wait.(0) <- rp_wait.(0) +. (t' -. t);
            let k = op_kind.(slot) in
            kind_ns.(k) <- kind_ns.(k) +. op_ns.(slot);
            kind_n.(k) <- kind_n.(k) + 1
          end);
    }
  in
  (* Window bookkeeping: opened by the first measuring worker, closed by
     the last one (its [sys_stop]). *)
  let snap () =
    let s = Respct.Runtime.stats rt in
    (s.Respct.Runtime.checkpoints, s.Respct.Runtime.flushed_addrs,
     s.Respct.Runtime.flush_ns, s.Respct.Runtime.stall_ns)
  in
  let gc0 = ref (Gc.quick_stat ()) and gc1 = ref (Gc.quick_stat ()) in
  let rt0 = ref (snap ()) and rt1 = ref (snap ()) in
  let counts = no_counts () in
  let sampler = ref None and stacks = ref [] in
  let on_window () =
    in_window := true;
    rt0 := snap ();
    Probe.cut clock Probe.Window;
    if pass = Sampled then sampler := Some (Sampler.start ());
    gc0 := Gc.quick_stat ()
  in
  let close_window () =
    gc1 := Gc.quick_stat ();
    Option.iter (fun s -> stacks := Sampler.stop s) !sampler;
    Probe.cut clock Probe.Untimed;
    in_window := false;
    rt1 := snap ();
    add_counts counts (Simnvm.Memsys.stats mem)
  in
  let map = ref None in
  let build () =
    let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:p.Harness.Systems.buckets in
    map := Some m;
    let sys =
      {
        Pds.Ops.sys_register = (fun ~slot -> Respct.Runtime.register rt ~slot);
        sys_deregister = (fun ~slot -> Respct.Runtime.deregister rt ~slot);
        sys_allow = (fun ~slot -> Respct.Runtime.checkpoint_allow rt ~slot);
        sys_prevent =
          (fun ~slot -> Respct.Runtime.checkpoint_prevent_nolock rt ~slot);
        sys_stop =
          (fun () ->
            close_window ();
            Respct.Runtime.stop rt);
      }
    in
    (instrument (plant (Pds.Hashmap_respct.ops m)), sys)
  in
  let key_space = 2 * cfg.buckets in
  let wl =
    {
      Harness.Workload.nthreads = cfg.threads;
      duration_ns = cfg.window_ns;
      key_space;
      update_pct = cfg.update_pct;
      prefill = cfg.prefill;
      seed;
    }
  in
  let r =
    Harness.Workload.run_map ~mem ~on_window ~sched ~params:wl ~build ()
  in
  let ops = r.Harness.Workload.total_ops in
  let m = Option.get !map in
  let walk read =
    Pds.Hashmap_respct.bindings_of ~read
      ~line_words:(Simsched.Env.line_words env)
      ~fuel:p.Harness.Systems.nvm_words ~heads:(Pds.Hashmap_respct.heads m)
      ~buckets:(Pds.Hashmap_respct.buckets m)
  in
  let live_errors =
    match walk (Simnvm.Memsys.peek mem) with
    | exception Failure msg -> [ "live map walk: " ^ msg ]
    | bs ->
        let expected = !inserted - !removed in
        (if List.length bs <> expected then
           [
             Printf.sprintf
               "map holds %d bindings but the wrapper counted %d inserts - %d \
                removes = %d"
               (List.length bs) !inserted !removed expected;
           ]
         else [])
        @ distinct_keys_in ~what:"live map" ~key_space bs
  in
  let recovery_values, recovery_errors =
    if not cfg.crash then ([], [])
    else begin
      Simnvm.Memsys.crash mem;
      let h = cpu_s () in
      let rep =
        Respct.Recovery.run ~threads:recovery_threads
          ~layout:(Respct.Runtime.layout rt) mem
      in
      let host_ms = (cpu_s () -. h) *. 1e3 in
      ( [
          ("sim_recovery_us", rep.Respct.Recovery.duration_ns /. 1e3);
          ("respct.recovery.host_ms", host_ms);
          ("respct.recovery.scanned", float_of_int rep.Respct.Recovery.scanned);
          ( "respct.recovery.rolled_back",
            float_of_int (List.length rep.Respct.Recovery.rolled_back) );
        ],
        match Pds.Hashmap_respct.persisted_bindings mem m with
        | exception Failure msg -> [ "recovered map walk: " ^ msg ]
        | bs -> distinct_keys_in ~what:"recovered map" ~key_space bs )
    end
  in
  let errors = live_errors @ recovery_errors in
  let slices = Probe.stop clock in
  let sorted = Samples.sorted latency in
  let pct q = if sorted = [||] then 0.0 else Perf.Stat.percentile_of_sorted sorted q in
  let n = Array.length sorted in
  let c0, f0, fl0, st0 = !rt0 and c1, f1, fl1, st1 = !rt1 in
  let ckpts = c1 - c0 in
  let kind k = per kind_n.(k) kind_ns.(k) in
  let values =
    [
      ("sim_mops", r.Harness.Workload.mops);
      ("sim_op_mean_ns", per n (Array.fold_left ( +. ) 0.0 sorted));
      ("sim_op_p50_ns", pct 0.5);
      ("sim_op_p99_ns", pct 0.99);
      ("sim_op_p999_ns", pct 0.999);
      ("sim_op_samples", float_of_int n);
      ("sim_ckpt_stall_us", per ckpts (st1 -. st0) /. 1e3);
      ("failed_share", if errors = [] then 0.0 else 1.0);
      ("respct.checkpoints", float_of_int ckpts);
      ("respct.flushed_addrs_per_ckpt", per ckpts (float_of_int (f1 - f0)));
      ("respct.flush_us_per_ckpt", per ckpts (fl1 -. fl0) /. 1e3);
      ("respct.rp.wait_ns_per_op", per n rp_wait.(0));
      ("pds.insert.sim_ns", kind 0);
      ("pds.remove.sim_ns", kind 1);
      ("pds.search.sim_ns", kind 2);
    ]
    @ mem_values ~ops counts
    @ (if pass = Counted then
         [
           ("simsched.acquires_per_op", per ops (float_of_int !acquires));
           ("simnvm.charged_ns_per_op", per ops charged.(0));
         ]
       else [])
    @ recovery_values
    @ gc_values ~ops !gc0 !gc1
  in
  {
    slices;
    setups = 1;
    ops;
    attempted = ops;
    failed = (if errors = [] then 0 else ops);
    errors;
    values;
    profile = (if pass = Sampled then Some (Sampler.profile !stacks) else None);
    spans = (if pass = Plain then None else Some (Obs.Span.to_json spans));
  }

(* ------------------------------------------------------------------ *)
(* kv-service: the sharded front-end, below saturation *)

module F = Service.Front

let kv_cfg size ~seed =
  let base =
    {
      F.smoke with
      F.shards = 4;
      workers = 2;
      theta = 0.99;
      read_pct = 90;
      arrival_ns = 2_000.0;
      think_ns = 1.0e6;
      period_ns = 1.0e6;
      (* at least the session count: closed-loop sessions then can never
         be refused, so no request fails *)
      queue_cap = 1024;
      collect_final = true;
      seed;
    }
  in
  match size with
  | Full ->
      {
        base with
        F.sessions = 500;
        requests = 600;
        keys = 65_536;
        prefill = 16_384;
        nvm_words = 1 lsl 19;
      }
  | Smoke ->
      {
        base with
        F.sessions = 20;
        requests = 20;
        keys = 4_096;
        prefill = 1_024;
        think_ns = 20_000.0;
        period_ns = 50_000.0;
        nvm_words = 1 lsl 17;
      }

let run_kv cfg ~pass =
  (* [Front.run] builds, prefills and serves in one call, so set-up is
     timed as a run with one session of one request over the same
     geometry, and the measured window is a whole run. *)
  let clock = Probe.start () in
  ignore (F.run { cfg with F.sessions = 1; requests = 1; collect_final = false });
  Probe.cut clock Probe.Window;
  let sampler = if pass = Sampled then Some (Sampler.start ()) else None in
  let gc0 = Gc.quick_stat () in
  let r = F.run cfg in
  let gc1 = Gc.quick_stat () in
  let stacks = Option.fold ~none:[] ~some:Sampler.stop sampler in
  let slices = Probe.stop clock in
  let shards = r.F.r_shards in
  let sum f = List.fold_left (fun a s -> a + f s) 0 shards in
  let sumf f = List.fold_left (fun a s -> a +. f s) 0.0 shards in
  let ckpts = sum (fun s -> s.F.sr_checkpoints) in
  let served = sum (fun s -> s.F.sr_served) in
  let issued = cfg.F.sessions * cfg.F.requests in
  let errors =
    (if r.F.r_completed + r.F.r_failed <> issued then
       [
         Printf.sprintf "%d completed + %d failed requests, %d issued"
           r.F.r_completed r.F.r_failed issued;
       ]
     else [])
    @ (if r.F.r_crash <> None || List.exists (fun s -> s.F.sr_down) shards then
         [ "a shard went down in a crash-free run" ]
       else [])
    @ (if not (List.for_all (fun sc -> sc.F.sc_ok) r.F.r_survivors) then
         [ "survivor durability audit failed" ]
       else [])
    @
    match r.F.r_final with
    | None -> [ "no final map collected" ]
    | Some final ->
        let final = List.sort compare final in
        let missing =
          List.length (List.filter (fun (k, _) -> k < cfg.F.prefill) final)
          <> cfg.F.prefill
        in
        distinct_keys_in ~what:"final map" ~key_space:cfg.F.keys final
        @ (if missing then [ "a prefilled key is missing from the final map" ]
           else [])
  in
  let batch = Obs.Metrics.histogram r.F.r_metrics "batch_size" in
  let latency = Obs.Metrics.histogram r.F.r_metrics "latency_ns" in
  let ops = r.F.r_completed in
  let values =
    [
      ("sim_mops", r.F.r_mrps);
      ("sim_op_mean_ns", Obs.Metrics.mean latency);
      ("sim_ckpt_stall_us", per ckpts (sumf (fun s -> s.F.sr_stall_ns)) /. 1e3);
      ("failed_share", per (r.F.r_completed + r.F.r_failed) (float_of_int r.F.r_failed));
      ("respct.checkpoints", float_of_int ckpts);
      ("respct.flush_us_per_ckpt", per ckpts (sumf (fun s -> s.F.sr_flush_ns)) /. 1e3);
      ("service.batch_size_mean", Obs.Metrics.mean batch);
      ("service.coalesced_share", per served (float_of_int (sum (fun s -> s.F.sr_coalesced))));
      ( "service.queue_depth_max",
        float_of_int (List.fold_left (fun a s -> max a s.F.sr_max_depth) 0 shards) );
      ("service.rejected_full", float_of_int r.F.r_rejected_full);
      ("service.retried", float_of_int r.F.r_retried);
      ("service.stall_overlap_ns", r.F.r_stall_overlap_ns);
    ]
    @ gc_values ~ops gc0 gc1
  in
  {
    slices;
    setups = 1;
    ops;
    attempted = issued;
    failed = r.F.r_failed;
    errors;
    values;
    profile = Option.map (fun _ -> Sampler.profile stacks) sampler;
    spans =
      (if pass = Plain then None
       else
         Some
           (Obs.Json.Obj
              (List.map (fun (i, j) -> (Printf.sprintf "shard%d" i, j)) r.F.r_span_json)));
  }

(* ------------------------------------------------------------------ *)
(* crash-matrix: exhaustive crash points x adversarial images *)

let crash_scenario ~seed ~n_ops =
  Crashtest.Scenarios.respct_map ~fault_mode:`Verified ~sched_seed:seed
    ~mem_seed:seed ~pcso:true ~n_ops ()

(* An execution explores [scenarios] worlds of [n_ops] operations each,
   seeded [seed * scenarios + i]. Set-up is one scenario's construction
   plus a crash-free golden execution of its world at [golden_ops]
   operations, made [reps] times per scenario and averaged (a
   construction alone takes microseconds, too little to time). The golden
   runs also give the simulated metrics: memory time charged per
   operation, over enough operations that the seed's operation mix
   barely moves it. *)
type crash_shape = { scenarios : int; n_ops : int; golden_ops : int; reps : int }

let crash_shape = function
  | Full -> { scenarios = 2; n_ops = 100; golden_ops = 1000; reps = 7 }
  | Smoke -> { scenarios = 1; n_ops = 12; golden_ops = 50; reps = 2 }

let run_crash ?(scenario = crash_scenario) size ~seed ~pass =
  let shape = crash_shape size in
  let setup i =
    let sc = scenario ~seed:((seed * shape.scenarios) + i) ~n_ops:shape.n_ops in
    let inst = sc.Crashtest.Explore.make ~n_ops:shape.golden_ops in
    let charged = [| 0.0 |] in
    count_charges inst.Crashtest.Explore.mem charged ~on:(ref true);
    inst.Crashtest.Explore.run ();
    (sc, inst.Crashtest.Explore.completed (), charged.(0))
  in
  let clock = Probe.start () in
  let built =
    List.init shape.scenarios (fun i -> List.hd (List.init shape.reps (fun _ -> setup i)))
  in
  let golden_ops = List.fold_left (fun a (_, n, _) -> a + n) 0 built in
  let golden_ns = List.fold_left (fun a (_, _, ns) -> a +. ns) 0.0 built in
  let rc_s = ref 0.0 and rc_calls = ref 0 in
  let timed check () =
    let t = cpu_s () in
    let r = check () in
    rc_s := !rc_s +. (cpu_s () -. t);
    incr rc_calls;
    r
  in
  let counts = no_counts () in
  let last = ref None in
  let retire () = Option.iter (fun m -> add_counts counts (Simnvm.Memsys.stats m)) !last in
  let charged = [| 0.0 |] in
  let make (sc : Crashtest.Explore.scenario) ~n_ops =
    retire ();
    let i = sc.Crashtest.Explore.make ~n_ops in
    let mem = i.Crashtest.Explore.mem in
    last := Some mem;
    if pass = Counted then count_charges mem charged ~on:(ref true);
    {
      i with
      Crashtest.Explore.recover_check = timed i.Crashtest.Explore.recover_check;
      recover_check_faulty =
        Option.map timed i.Crashtest.Explore.recover_check_faulty;
    }
  in
  Probe.cut clock Probe.Window;
  let sampler = if pass = Sampled then Some (Sampler.start ()) else None in
  let gc0 = Gc.quick_stat () in
  let t0 = cpu_s () in
  let outcomes =
    List.map
      (fun (sc, _, _) -> Crashtest.Explore.explore { sc with Crashtest.Explore.make = make sc })
      built
  in
  let window_s = cpu_s () -. t0 in
  let gc1 = Gc.quick_stat () in
  let stacks = Option.fold ~none:[] ~some:Sampler.stop sampler in
  let slices = Probe.stop clock in
  retire ();
  let total f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let images = total (fun o -> o.Crashtest.Explore.images) in
  let all_failures = List.concat_map (fun o -> o.Crashtest.Explore.failures) outcomes in
  let failures = List.length all_failures in
  let errors =
    match all_failures with
    | [] -> []
    | f :: _ ->
        [
          Printf.sprintf "%d of %d images violate the oracle; first at crash %d: %s"
            failures images f.Crashtest.Explore.crash_index f.Crashtest.Explore.reason;
        ]
  in
  let values =
    [
      ("sim_mops", float_of_int golden_ops /. (golden_ns /. 1e3));
      ("sim_op_mean_ns", per golden_ops golden_ns);
      ("failed_share", per images (float_of_int failures));
      ("crashtest.boundaries", float_of_int (total (fun o -> o.Crashtest.Explore.boundaries)));
      ("crashtest.images", float_of_int images);
      ("crashtest.recover_check.host_us", per !rc_calls !rc_s *. 1e6);
      ("crashtest.reexec.host_share", 1.0 -. (!rc_s /. window_s));
    ]
    @ mem_values ~ops:images counts
    @ (if pass = Counted then [ ("simnvm.charged_ns_per_op", per images charged.(0)) ]
       else [])
    @ gc_values ~ops:images gc0 gc1
  in
  {
    slices;
    setups = shape.scenarios * shape.reps;
    ops = images;
    attempted = images;
    failed = failures;
    errors;
    values;
    profile = Option.map (fun _ -> Sampler.profile stacks) sampler;
    spans = None;
  }

(* ------------------------------------------------------------------ *)

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type workload = { name : string; run : size -> seed:int -> pass:pass -> rep }

let all =
  [
    {
      name = "map-write";
      run =
        (fun size ~seed ~pass ->
          run_map (map_cfg size ~update_pct:50 ~crash:true) ~seed ~pass);
    };
    {
      name = "map-read";
      run =
        (fun size ~seed ~pass ->
          run_map (map_cfg size ~update_pct:10 ~crash:false) ~seed ~pass);
    };
    {
      name = "kv-service";
      run = (fun size ~seed ~pass -> run_kv (kv_cfg size ~seed) ~pass);
    };
    {
      name = "crash-matrix";
      run = (fun size ~seed ~pass -> run_crash size ~seed ~pass);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
