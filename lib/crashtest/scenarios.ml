(* Crash-test scenarios: one deterministic single-worker world per
   (system, structure) pair, each with the strongest oracle its
   persistence contract supports.

   [drive] is the one world. It builds the memory and the scheduler, lets
   the system start its worker fiber, runs the Workmix op list through the
   structure's [Pds.Ops] record, and assembles the explorer's records.
   Per op the order is fixed: operation, model update, completed += 1,
   restart point — the pilot's completed count at every crash boundary
   depends on it. A system supplies only its [half]: how the worker
   starts, the structure's constructor, and the oracle.

   - ResPCT (and the raw-word variant): last-checkpoint oracle. The
     runtime's own coordinator snapshots the host-side reference model
     in [Runtime.start]'s [on_flushed] hook — the instant every thread
     is quiescent at a restart point, when the logical state recovery
     must restore for a crash in the *next* epoch is exactly the model.
     Comparing the recovered bindings against the *model* (not against a
     persisted-image snapshot) is what catches tracking bugs such as a
     missing [add_modified]: a never-flushed cell is stale in both the
     image snapshot and the recovered image, but not in the model.

   - Clobber / Quadra / FriedmanQueue: durable-linearizability oracle.
     The recovered state must be the reference state after [c] or [c + 1]
     completed operations ([c + 1] when the in-flight operation's effects
     persisted in full before the crash). For Clobber and Quadra, shadow
     recovery (Fatomic.recover_shadow) first reconstructs what each
     published log durably contains; Quadra additionally reports torn
     lines — persisted line states unreachable under PCSO — which is
     precisely what the word-granular ablation produces and in-cache-line
     logging cannot recover from.

   - SOFT: durable-linearizability with per-key choice. An in-flight
     update legitimately leaves both the old and the new pnode valid;
     recovery may keep either, so the oracle accepts any per-key choice
     function that reproduces state [c] or [c + 1].

   - PMThreads / Montage / Dali: progress-and-determinism oracle only.
     Their recovery procedures are modelled as time costs, not as
     content transformations, so the explorer checks that every crash
     boundary is reachable deterministically (same completed-op count as
     the pilot) and that recovery hooks do not raise.

   [all] is the one registry: each entry names the dimension it runs in
   and its expectation there. *)

let nvm_words = 1 lsl 16
let dram_words = 1 lsl 14

let mem_cfg ~mem_seed ~pcso =
  {
    Simnvm.Memsys.default_config with
    Simnvm.Memsys.nvm_words;
    dram_words;
    sets = 64;
    ways = 4;
    seed = mem_seed;
    evict_rate = 0.0;
    pcso;
  }

let buckets = 8
let epoch_period = 3_000.0

type structure = Map | Queue

(* ------------------------------------------------------------------ *)
(* The single-worker world *)

type world = {
  mem : Simnvm.Memsys.t;
  sched : Simsched.Scheduler.t;
  env : Simsched.Env.t;
  completed : int ref;  (* operations fully completed so far *)
}

(* A system's half of the world. [start] spawns the worker fiber around
   the driver's body; the body first calls [open_], which builds the
   structure and returns its op step and restart point, and ends with
   [close]. [oracle ~faults] judges the current persistent image;
   [faults] says whether it carries injected media damage. [key] is the
   explorer's oracle key ([Explore.instance.oracle_key]). *)
type 'op half = {
  start : (unit -> unit) -> unit;
  open_ : unit -> ('op -> unit) * (unit -> unit);
  after_op : 'op -> unit;
  close : unit -> unit;
  oracle : faults:bool -> unit -> (unit, string) result;
  key : (unit -> int) option;
}

let drive ~name ~mix system ~sched_seed ~mem_seed ~pcso ~n_ops :
    Explore.scenario =
  let make ~n_ops =
    let mem = Simnvm.Memsys.create (mem_cfg ~mem_seed ~pcso) in
    let sched = Simsched.Scheduler.create ~seed:sched_seed () in
    let w =
      { mem; sched; env = Simsched.Env.make mem sched; completed = ref 0 }
    in
    let ops = mix ~mem_seed ~n_ops in
    let h = system w ops in
    let run () =
      h.start (fun () ->
          let step, rp = h.open_ () in
          List.iter
            (fun op ->
              step op;
              h.after_op op;
              incr w.completed;
              rp ())
            ops;
          h.close ());
      match Simsched.Scheduler.run sched with
      | Simsched.Scheduler.Completed | Simsched.Scheduler.Crash_interrupt _ -> ()
    in
    {
      Explore.mem;
      run;
      completed = (fun () -> !(w.completed));
      recover_check = h.oracle ~faults:false;
      recover_check_faulty = Some (h.oracle ~faults:true);
      oracle_key = h.key;
    }
  in
  { Explore.name; sched_seed; mem_seed; pcso; n_ops; make }

(* The one map op and the one queue op: a Workmix op through the
   structure's [Pds.Ops] record, plus the record's restart-point hook
   ([Pds.Ops.no_rp] for the flush-per-op systems). *)
let map_step (m : Pds.Ops.map) =
  ( (function
    | Workmix.Insert (key, value) -> ignore (m.Pds.Ops.insert ~slot:0 ~key ~value)
    | Workmix.Remove key -> ignore (m.Pds.Ops.remove ~slot:0 ~key)
    | Workmix.Search key -> ignore (m.Pds.Ops.search ~slot:0 ~key)),
    fun () -> m.Pds.Ops.map_rp ~slot:0 ~id:1 )

let queue_step (q : Pds.Ops.queue) =
  ( (function
    | Workmix.Enqueue v -> q.Pds.Ops.enqueue ~slot:0 v
    | Workmix.Dequeue -> ignore (q.Pds.Ops.dequeue ~slot:0)),
    fun () -> q.Pds.Ops.queue_rp ~slot:0 ~id:1 )

(* Each system draws its mix from its own offset of the memory seed. *)
let map_mix offset ~mem_seed ~n_ops =
  Workmix.map_ops ~seed:(mem_seed + offset) ~n:n_ops ()

let queue_mix offset ~mem_seed ~n_ops =
  Workmix.queue_ops ~seed:(mem_seed + offset) ~n:n_ops ()

(* ------------------------------------------------------------------ *)
(* ResPCT: the runtime's own periodic coordinator ([Runtime.start]),
   with model snapshots at the quiescent point of every checkpoint. *)

let rt_cfg =
  {
    Respct.Runtime.period_ns = 3_000.0;
    flusher_pool = 2;
    mode = Respct.Runtime.Full;
    max_threads = 4;
    (* Small: the workloads here are tens of ops, and recovery rescans the
       whole registry once per adversarial image — thousands of images per
       exploration. *)
    registry_per_slot = 192;
    integrity = false;
    pipeline = false;
  }

(* Recovery flavour of the ResPCT scenarios. [`Off] is the plain trusting
   scan on a plain image; [`Verified] writes the image under
   [Runtime.config.integrity] and recovers with [Recovery.run_verified];
   [`Noverify] is the planted mutant — the image carries the checksums but
   recovery runs the trusting scan, so injected media damage must surface
   as a silently wrong image the fault oracle catches. *)
type respct_fault_mode = [ `Off | `Verified | `Noverify ]

(* The snapshots of a ResPCT world by epoch: every oracle call looks one
   up, so the table compares its int keys directly. *)
module Epochs = Hashtbl.Make (Int)

(* ResPCT's half: the runtime and its coordinator start before the
   worker, which runs under [Runtime.spawn]. [snapshot] is taken at every
   checkpoint's quiescent point ([Runtime.start]'s hook); [oracle] gets
   the runtime and the snapshot for an epoch. The worker's [close] stops
   the runtime: the coordinator exits at its next deadline and a
   pipelined runtime's idle flushers wake and exit, so the world
   completes.

   Besides the image, the oracle reads the runtime, the structure handle
   [open_] records and the snapshots, so [version] counts their changes:
   runtime creation, structure creation and every [on_flushed]. *)
let respct_half ~cfg ?mutant (w : world) ~snapshot ~after_op ~open_ ~oracle =
  let rt = ref None and version = ref 0 in
  let snapshots = Epochs.create 8 in
  let runtime () = Option.get !rt in
  {
    start =
      (fun body ->
        let r = Respct.Runtime.create ~cfg w.env in
        Respct.Runtime.set_mutant r mutant;
        rt := Some r;
        incr version;
        Respct.Runtime.start r ~on_flushed:(fun next_epoch ->
            Epochs.replace snapshots next_epoch (snapshot ());
            incr version);
        ignore (Respct.Runtime.spawn r ~slot:0 (fun _ctx -> body ())));
    open_ =
      (fun () ->
        let step = open_ (runtime ()) in
        incr version;
        step);
    after_op;
    close = (fun () -> Respct.Runtime.stop (runtime ()));
    oracle =
      (fun ~faults () ->
        match !rt with
        | None -> Ok () (* crash before the runtime existed: nothing promised *)
        | Some r ->
            oracle ~faults r (fun epoch ->
                Option.value ~default:[] (Epochs.find_opt snapshots epoch)));
    key = Some (fun () -> !version);
  }

(* The last-checkpoint oracle, one recover-then-compare path for every
   fault mode.

   The recovered image can only be interpreted through the structure once
   a checkpoint has covered its creation ([created] holds the creation
   epoch and the handle): for a crash in the creation epoch, recovery
   rolls back the heap cursor and the registry length, so the structure's
   cells are discarded allocations the re-executed application
   re-initialises — walking them would read garbage that is never
   observable after restart.

   [`Verified] recovery also returns a verdict. On perfect media the
   recovered structure must match the snapshot regardless of the verdict:
   damage classification may legitimately fire on freed cells caught
   mid-reinitialisation (their partial init is not logged, exactly like
   upstream ResPCT, because a free cell is unreachable in every
   recoverable state), but it can never change reachable state — and an
   [Unrecoverable] verdict is a false alarm by construction, since
   metadata cells are never recycled. On faulty media the verdict gates
   the comparison: [Clean] / [Repaired] promise the exact last-checkpoint
   snapshot and are held to it; [Salvaged] / [Unrecoverable] explicitly
   report the damage, which is the whole durability contract — detected
   or exact, never silently wrong.

   Verified recovery runs over the world's own backend record, built once
   with the world: nothing in it depends on the image. Each structure
   passes the typed [equal] of its contents. *)
let last_checkpoint ~fault_mode ~faults (w : world) r ~snapshot ~created
    ~recovered ~equal ~pp =
  let layout = Respct.Runtime.layout r in
  let failed, verdict =
    match fault_mode with
    | `Verified ->
        let v =
          Respct.Recovery.run_verified_backend ~layout
            (Simsched.Env.backend w.env)
        in
        ( v.Respct.Recovery.vreport.Respct.Recovery.failed_epoch,
          Some v.Respct.Recovery.verdict )
    | `Off | `Noverify ->
        ((Respct.Recovery.run ~layout w.mem).Respct.Recovery.failed_epoch, None)
  in
  match (verdict, created) with
  | Some v, _ when faults && not (Respct.Recovery.exact_image v) -> Ok ()
  | Some (Respct.Recovery.Unrecoverable _ as v), _ when not faults ->
      Error (Fmt.str "perfect media judged %a" Respct.Recovery.pp_verdict v)
  | _, Some (epoch, h) when failed > epoch ->
      let expected = snapshot failed and got = recovered h in
      if equal got expected then Ok ()
      else
        Error
          (Fmt.str "%aepoch %d: recovered %a, last checkpoint had %a"
             (Fmt.option (fun ppf v ->
                  Fmt.pf ppf "verdict %a, " Respct.Recovery.pp_verdict v))
             verdict failed pp got pp expected)
  | _ -> Ok ()

(* ResPCT over its map or queue. Pipelined variants switch on the
   asynchronous epoch advance; the crash boundaries then include every
   pwb of the background walk and the (double-buffered) seal itself, so
   the explorer visits crashes mid-walk, between the commit-slot stores
   and the epoch-word store, and at the workers' first post-advance
   restart points. [churn] drives the map with the allocator-churn mix. *)
let respct ?(fault_mode : respct_fault_mode = `Off) ?(pipeline = false)
    ?(churn = false) ?mutant structure ~name =
  let cfg =
    { rt_cfg with Respct.Runtime.integrity = fault_mode <> `Off; pipeline }
  in
  let system ~model ~create ~recovered ~equal ~pp (w : world) _ops =
    let m = model () in
    let created = ref None in
    respct_half ~cfg ?mutant w ~snapshot:m.Workmix.state
      ~after_op:m.Workmix.apply
      ~open_:(fun r ->
        let h, step = create r in
        created := Some (Respct.Runtime.epoch r, h);
        step)
      ~oracle:(fun ~faults r snapshot ->
        last_checkpoint ~fault_mode ~faults w r ~snapshot
          ~created:!created ~recovered:(recovered w.mem) ~equal ~pp)
  in
  match structure with
  | Map ->
      drive ~name
        ~mix:
          (if churn then fun ~mem_seed:_ ~n_ops -> Workmix.churn_ops ~n:n_ops ()
           else map_mix 11)
        (system ~model:Workmix.map_model
           ~create:(fun r ->
             let m = Pds.Hashmap_respct.create r ~slot:0 ~buckets in
             (m, map_step (Pds.Hashmap_respct.ops m)))
           ~recovered:Pds.Hashmap_respct.persisted_bindings
           ~equal:
             (List.equal (fun a b -> Pds.Hashmap_respct.compare_binding a b = 0))
           ~pp:Workmix.pp_bindings)
  | Queue ->
      drive ~name ~mix:(queue_mix 23)
        (system ~model:Workmix.queue_model
           ~create:(fun r ->
             let q = Pds.Queue_respct.create r ~slot:0 in
             (q, queue_step (Pds.Queue_respct.ops q)))
           ~recovered:Pds.Queue_respct.persisted_contents
           ~equal:(List.equal Int.equal) ~pp:Workmix.pp_contents)

let respct_map ?(fault_mode : respct_fault_mode = `Off) ?(pipeline = false)
    ?(churn = false) ?mutant ~sched_seed ~mem_seed ~pcso ~n_ops () =
  let name =
    String.concat ""
      [
        "respct-map";
        (match fault_mode with
        | `Off -> ""
        | `Verified -> "-integrity"
        | `Noverify -> "-noverify");
        (if pipeline then "-pipeline" else "");
        (if churn then "-churn" else "");
        (match mutant with
        | None -> ""
        | Some Respct.Runtime.Seal_before_walk -> "-mutant-earlyseal"
        | Some Respct.Runtime.No_overlap_wait -> "-mutant-nowait"
        | Some Respct.Runtime.Early_reclaim -> "-mutant-earlyreclaim");
      ]
  in
  respct ~fault_mode ~pipeline ~churn ?mutant Map ~name ~sched_seed ~mem_seed
    ~pcso ~n_ops

(* Raw-word append log: op [i] allocates one line-aligned untracked
   persistent word, stores a unique value and registers it with
   [add_modified] — the paper's section 3.3.2 rule for WAR-free data. The
   [mutant] flag skips [add_modified] on every third word (a deliberately
   planted tracking bug): its line is never flushed by any checkpoint, so
   the last-checkpoint oracle reports a stale word. Line alignment keeps a
   neighbouring entry's flush from masking the bug. The oracle is
   one-sided (every entry of the failed epoch's snapshot must be
   persisted), which is the durability contract of tracked raw data. *)
let raw ~mutant ~name =
  drive ~name
    ~mix:(fun ~mem_seed:_ ~n_ops -> List.init n_ops (fun i -> i + 1))
    (fun w _ops ->
      let entries = ref [] in
      let append r i =
        let addr =
          Respct.Runtime.alloc_raw ~line_start:true r ~slot:0 ~words:1
        in
        Simsched.Env.store w.env addr (1000 + i);
        if not (mutant && i mod 3 = 0) then
          Respct.Runtime.add_modified r ~slot:0 addr;
        entries := (addr, 1000 + i) :: !entries
      in
      respct_half ~cfg:rt_cfg w
        ~snapshot:(fun () -> !entries)
        ~after_op:ignore
        ~open_:(fun r -> (append r, fun () -> Respct.Runtime.rp r ~slot:0 1))
        ~oracle:(fun ~faults:_ r snapshot ->
          let failed =
            (Respct.Recovery.run ~layout:(Respct.Runtime.layout r) w.mem)
              .Respct.Recovery.failed_epoch
          in
          let image = Simnvm.Memsys.persisted w.mem in
          match List.find_opt (fun (a, v) -> image a <> v) (snapshot failed) with
          | None -> Ok ()
          | Some (a, v) ->
              Error
                (Printf.sprintf
                   "epoch %d: word %d should persist %d, image has %d" failed a
                   v (image a))))

let respct_raw ?(mutant = false) ~sched_seed ~mem_seed ~pcso ~n_ops () =
  raw ~mutant
    ~name:(if mutant then "respct-raw-mutant" else "respct-raw")
    ~sched_seed ~mem_seed ~pcso ~n_ops

(* ------------------------------------------------------------------ *)
(* The other systems run their worker as a plain fiber. [create] builds
   the structure inside it and returns the handle the oracle reads: a
   crash during construction finds no handle, and nothing is promised
   yet. Their oracles read host state that changes mid-operation (the
   completed count, shadow logs), so they give no oracle key. *)

let worker ?(close = ignore) ~create ~check (w : world) =
  let handle = ref None in
  {
    start =
      (fun body -> ignore (Simsched.Scheduler.spawn ~name:"worker" w.sched body));
    open_ =
      (fun () ->
        let h, step = create w.env in
        handle := Some h;
        step);
    after_op = ignore;
    close = (fun () -> Option.iter close !handle);
    oracle =
      (fun ~faults:_ () -> match !handle with None -> Ok () | Some h -> check h);
    key = None;
  }

(* The {c, c+1} window over the reference prefix states. *)
let in_window matches states c got =
  matches got states.(c)
  || (c + 1 < Array.length states && matches got states.(c + 1))

let window ~pp states c got =
  if in_window ( = ) states c got then Ok ()
  else
    Error
      (Fmt.str "after %d complete ops: recovered %a not in {%a, %a}" c pp got pp
         states.(c) pp
         states.(min (c + 1) (Array.length states - 1)))

(* Clobber / Quadra: shadow recovery, then the window. *)
let durlin policy structure ~name =
  let check ~pp (w : world) states fa recovered =
    match Baselines.Fatomic.recover_shadow fa with
    | Baselines.Fatomic.Torn_line line ->
        Error
          (Printf.sprintf "torn line %d: persisted state unreachable under PCSO"
             line)
    | Baselines.Fatomic.Rolled_back _ ->
        window ~pp states !(w.completed) (recovered ())
  in
  match structure with
  | Map ->
      drive ~name ~mix:(map_mix 31) (fun w ops ->
          let states = Workmix.map_states ops in
          worker w
            ~create:(fun env ->
              let fa, m, o =
                Baselines.Durlin.make_map_instrumented env ~policy
                  ~max_threads:2 ~buckets
              in
              ((fa, m), map_step o))
            ~check:(fun (fa, m) ->
              check ~pp:Workmix.pp_bindings w states fa (fun () ->
                  Pds.Hashmap_transient.persisted_bindings w.mem m)))
  | Queue ->
      drive ~name ~mix:(queue_mix 43) (fun w ops ->
          let states = Workmix.queue_states ops in
          worker w
            ~create:(fun env ->
              let fa, q, o =
                Baselines.Durlin.make_queue_instrumented env ~policy
                  ~max_threads:2
              in
              ((fa, q), queue_step o))
            ~check:(fun (fa, q) ->
              check ~pp:Workmix.pp_contents w states fa (fun () ->
                  Pds.Queue_transient.persisted_contents w.mem q)))

(* SOFT: the window with per-key choice — an in-flight update leaves both
   pnodes valid and recovery may keep either. *)
let soft_map ~name =
  let matches recovered state =
    List.sort_uniq compare (List.map fst recovered) = List.map fst state
    && List.for_all (fun kv -> List.mem kv recovered) state
  in
  drive ~name ~mix:(map_mix 53) (fun w ops ->
      let states = Workmix.map_states ops in
      worker w
        ~create:(fun env ->
          let t, o = Baselines.Soft.make_map_instrumented env ~buckets in
          (t, map_step o))
        ~check:(fun t ->
          let recovered = Baselines.Soft.persisted_bindings w.mem t in
          let c = !(w.completed) in
          if in_window matches states c recovered then Ok ()
          else
            Error
              (Fmt.str "after %d complete ops: valid pnodes %a match neither \
                        %a nor the next state"
                 c Workmix.pp_bindings recovered Workmix.pp_bindings
                 states.(c))))

(* FriedmanQueue: the window on the persisted head chain. *)
let friedman_queue ~name =
  drive ~name ~mix:(queue_mix 61) (fun w ops ->
      let states = Workmix.queue_states ops in
      worker w
        ~create:(fun env ->
          let t, o = Baselines.Friedman_queue.make_queue_instrumented env in
          (t, queue_step o))
        ~check:(fun t ->
          window ~pp:Workmix.pp_contents states !(w.completed)
            (Baselines.Friedman_queue.persisted_contents w.mem t)))

(* Buffered epoch systems (PMThreads, Montage, Dali): their recovery is
   modelled as a time cost, so content cannot be checked — the explorer's
   built-in determinism oracle (same completed-op count as the pilot at
   every boundary) is the property under test. *)
let epoch_system build step (w : world) =
  worker w
    ~create:(fun env ->
      let o, sys = build env in
      sys.Pds.Ops.sys_register ~slot:0;
      (sys, step o))
    ~close:(fun sys ->
      sys.Pds.Ops.sys_deregister ~slot:0;
      sys.Pds.Ops.sys_stop ())
    ~check:(fun _ -> Ok ())

let epoch_map make ~name =
  drive ~name ~mix:(map_mix 71) (fun w _ops ->
      epoch_system
        (fun env ->
          make env ~max_threads:2 ~period_ns:epoch_period ~flusher_pool:2
            ~buckets)
        map_step w)

let epoch_queue make ~name =
  drive ~name ~mix:(queue_mix 83) (fun w _ops ->
      epoch_system
        (fun env ->
          make env ~max_threads:2 ~period_ns:epoch_period ~flusher_pool:2)
        queue_step w)

(* ------------------------------------------------------------------ *)
(* Registry *)

type dimension = Ablation | Faults | Pipeline
type expect = Holds | Detects | Breaks

type entry = {
  id : string;
  structure : structure;
  dimension : dimension;
  expect : expect;
  build :
    sched_seed:int -> mem_seed:int -> pcso:bool -> n_ops:int ->
    Explore.scenario;
}

(* The built scenario is named by its id, so every printed [scenario=]
   field resolves through [find]. *)
let entry id structure (dimension, expect) build =
  { id; structure; dimension; expect; build = build ~name:id }

(* The mutant workloads run at twice the preset's op count: the bugs they
   plant only fire inside an overlap window that also contains a
   conflicting re-log (nowait) or a free-then-reuse pair (reclaim), and
   the smoke preset's op counts cross too few epochs to guarantee one.
   Exploration stops at the first violation, so the larger workload costs
   little. A printed [ops=] stays the preset's count, which replay doubles
   again. *)
let doubled build ~name ~sched_seed ~mem_seed ~pcso ~n_ops =
  build ~name ~sched_seed ~mem_seed ~pcso ~n_ops:(n_ops * 2)

let all : entry list =
  [
    (* The PCSO matrix. Under word-granular write-back, systems whose
       recovery leans on PCSO's same-line store ordering must break;
       systems that persist each datum with explicit flushes before
       depending on it must hold. *)
    entry "respct-map" Map (Ablation, Breaks) (respct Map);
    entry "respct-queue" Queue (Ablation, Breaks) (respct Queue);
    entry "respct-raw" Map (Ablation, Holds) (raw ~mutant:false);
    entry "clobber-map" Map (Ablation, Holds)
      (durlin Baselines.Fatomic.Clobber Map);
    entry "clobber-queue" Queue (Ablation, Holds)
      (durlin Baselines.Fatomic.Clobber Queue);
    entry "quadra-map" Map (Ablation, Breaks)
      (durlin Baselines.Fatomic.Quadra Map);
    entry "quadra-queue" Queue (Ablation, Breaks)
      (durlin Baselines.Fatomic.Quadra Queue);
    entry "soft-map" Map (Ablation, Holds) soft_map;
    entry "friedman-queue" Queue (Ablation, Holds) friedman_queue;
    entry "pmthreads-map" Map (Ablation, Holds)
      (epoch_map Baselines.Pmthreads.make_map);
    entry "pmthreads-queue" Queue (Ablation, Holds)
      (epoch_queue Baselines.Pmthreads.make_queue);
    entry "montage-map" Map (Ablation, Holds)
      (epoch_map Baselines.Montage.make_map);
    entry "montage-queue" Queue (Ablation, Holds)
      (epoch_queue Baselines.Montage.make_queue);
    entry "dali-map" Map (Ablation, Holds) (epoch_map Baselines.Dali.make_map);
    (* Media faults: integrity-mode worlds recovered with the verifying
       scan must detect or exactly repair every injected fault; the
       planted no-verification mutant must let one through, or the fault
       oracle has no teeth. *)
    entry "respct-map-integrity" Map (Faults, Detects)
      (respct ~fault_mode:`Verified Map);
    entry "respct-queue-integrity" Queue (Faults, Detects)
      (respct ~fault_mode:`Verified Queue);
    entry "respct-map-noverify" Map (Faults, Breaks)
      (respct ~fault_mode:`Noverify Map);
    (* Pipelined checkpointing. Correct configurations must recover at
       every crash boundary — including crashes taken mid background walk,
       between the commit-slot stores and the epoch-word store, and at
       the first post-advance restart point. The planted mutants each
       break one leg of the overlap protocol and must die with a shrunk,
       replayable counterexample:
       - [Seal_before_walk] seals the commit record at handoff, so a crash
         during the walk reports the new epoch durable while epoch-[e]
         lines are still dirty;
       - [No_overlap_wait] lets epoch-[e+1] writers overwrite the single
         backup word of a cell whose epoch-[e] log has not flushed, so
         rollback restores a value from the wrong epoch;
       - [Early_reclaim] releases epoch-[e] freed blocks at handoff, so an
         overlapped allocation recycles a cell that rollback still
         needs. *)
    entry "respct-map-pipeline" Map (Pipeline, Holds)
      (respct ~pipeline:true Map);
    entry "respct-queue-pipeline" Queue (Pipeline, Holds)
      (respct ~pipeline:true Queue);
    entry "respct-map-integrity-pipeline" Map (Pipeline, Detects)
      (respct ~fault_mode:`Verified ~pipeline:true Map);
    entry "respct-map-pipeline-mutant-earlyseal" Map (Pipeline, Breaks)
      (doubled
         (respct ~pipeline:true ~mutant:Respct.Runtime.Seal_before_walk Map));
    entry "respct-map-pipeline-mutant-nowait" Map (Pipeline, Breaks)
      (doubled
         (respct ~pipeline:true ~mutant:Respct.Runtime.No_overlap_wait Map));
    (* The control for the reclaim mutant below: the correct protocol must
       survive the allocator-churn workload that kills the mutant. *)
    entry "respct-map-pipeline-churn" Map (Pipeline, Holds)
      (respct ~pipeline:true ~churn:true Map);
    (* The map, not the queue: a hashmap remove frees a node whose key
       word is plain (written once, WAR-free), so an overlapped reuse
       destroys state that rollback cannot restore. The queue only ever
       frees sentinel nodes, whose observable fields are re-logged on
       reuse — InCLL's own logging heals the premature reclaim there.

       And the churn mix, not the random one: the hazard needs a block
       freed in epoch [e] to be re-allocated inside epoch [e]'s own
       overlap window (an older free is already legally released by then),
       which the random mix essentially never produces — its frees and its
       allocating re-inserts land epochs apart. The churn mix frees on
       every other operation and re-allocates on the next, and free lists
       are LIFO per size class, so nearly every overlap window pops a
       just-staged block. *)
    entry "respct-map-pipeline-churn-mutant-earlyreclaim" Map
      (Pipeline, Breaks)
      (doubled
         (respct ~pipeline:true ~churn:true
            ~mutant:Respct.Runtime.Early_reclaim Map));
  ]

let find id = List.find_opt (fun e -> e.id = id) all
