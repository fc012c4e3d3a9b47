(* Request-level serving front-end over N independently-checkpointed
   ResPCT shards (ROADMAP item 1; DESIGN.md §15).

   Topology: simulated client sessions -> front-end fiber -> per-shard
   bounded admission queue -> shard workers (batching + put-coalescing)
   -> per-shard Respct.Runtime world, with a rolling per-shard
   checkpoint schedule (deadlines staggered by period/shards) so no
   global pause exists.

   Sessions are *not* fibers: each fiber costs its own stack and effect
   continuation, so 10k session fibers would be heavy to hold. Instead
   one front-end fiber multiplexes all sessions as plain records
   driven by a binary heap of arrival events, and shard workers hand
   completions back through a mutex-guarded list + condvar. Network
   latency is one constant [net_ns] per hop (client->shard and
   shard->client), charged on the event times themselves, so queueing
   delay and propagation delay both land in the measured latency.

   Crash-under-load (File backend only): at [crash_at_ns] the victim
   shard's durability path (pwb/psync/flush) freezes — the moment the
   process would have died — its queue closes (clients see typed
   Shard_down rejections and retry or fail), in-flight batches are cut,
   and once its workers drain, the file image takes an in-process power
   cut and runs verified recovery *inside the simulation*, while the
   surviving shards keep serving. Replies are acked at execution, not at
   durability, so a crash rolls the victim back to its last sealed
   checkpoint — the paper's bounded-staleness externalisation caveat. *)

module Sched = Simsched.Scheduler
module Rng = Simnvm.Rng

type backend_kind = Sim | File of string

type config = {
  shards : int;
  vnodes : int;
  workers : int;  (* per shard *)
  sessions : int;
  requests : int;  (* per session (closed loop) *)
  keys : int;
  prefill : int;  (* keys [0, prefill) inserted before traffic starts *)
  theta : float;  (* zipfian skew of the key popularity *)
  read_pct : int;
  arrival_ns : float;  (* mean inter-session-arrival gap *)
  think_ns : float;  (* mean client think time between requests *)
  net_ns : float;  (* one-way network propagation *)
  queue_cap : int;
  batch_max : int;
  retries : int;  (* per request, on typed rejection or drop *)
  retry_ns : float;  (* mean client backoff before a retry *)
  period_ns : float;  (* per-shard checkpoint period *)
  pipeline : bool;
  integrity : bool;
  disjoint_keys : bool;
      (* partition the keyspace by session (conflict-free traffic: the
         routing-differential oracle needs writes that never race) *)
  collect_final : bool;  (* return the merged final (key, value) map *)
  seed : int;
  backend : backend_kind;
  nvm_words : int;  (* per shard; 0 = size from prefill + traffic *)
  registry_per_slot : int;
}

let smoke =
  {
    shards = 4;
    vnodes = 64;
    workers = 2;
    sessions = 200;
    requests = 10;
    keys = 20_000;
    prefill = 5_000;
    theta = 0.99;
    read_pct = 90;
    arrival_ns = 2_000.0;
    think_ns = 20_000.0;
    net_ns = 3_000.0;
    queue_cap = 256;
    batch_max = 16;
    retries = 2;
    retry_ns = 10_000.0;
    period_ns = 200_000.0;
    pipeline = true;
    integrity = true;
    disjoint_keys = false;
    collect_final = false;
    seed = 1;
    backend = Sim;
    nvm_words = 0;
    registry_per_slot = 1 lsl 14;
  }

(* The ROADMAP target: 1M+ keys, 10k+ concurrent sessions, zipfian
   hot-key storm. Tighter arrivals + more requests per session keep all
   10k sessions genuinely concurrent for most of the run. *)
let sweep =
  {
    smoke with
    shards = 8;
    workers = 4;
    sessions = 10_000;
    requests = 30;
    keys = 1 lsl 20;
    prefill = 1 lsl 20;
    arrival_ns = 400.0;
    think_ns = 1_000_000.0;
    queue_cap = 4_096;
    batch_max = 32;
    period_ns = 1_000_000.0;
    (* prefill-dense epochs log ~2-3 InCLL entries per insert; a 1 ms
       period over a 1M-key prefill needs headroom beyond 2^16 *)
    registry_per_slot = 1 lsl 17;
  }

(* ------------------------------------------------------------------ *)
(* Requests and sessions *)

type status = Pending | Done | Dropped

type req = {
  r_sid : int;
  r_key : int;
  r_put : int option;  (* None = get *)
  mutable r_submit : float;  (* client-side send instant *)
  mutable r_retries : int;
  mutable r_status : status;
}

(* Binary min-heap of timed events, tie-broken by insertion sequence so
   the event order (hence the whole run) is deterministic. *)
module Eheap = struct
  type 'a entry = { at : float; seq : int; v : 'a }
  type 'a t = { mutable a : 'a entry array; mutable n : int; mutable seq : int }

  let create () = { a = [||]; n = 0; seq = 0 }
  let lt x y = x.at < y.at || (x.at = y.at && x.seq < y.seq)

  let push t at v =
    let e = { at; seq = t.seq; v } in
    t.seq <- t.seq + 1;
    if t.n = Array.length t.a then begin
      let cap = max 16 (2 * t.n) in
      let a = Array.make cap e in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- e;
    t.n <- t.n + 1;
    let i = ref (t.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt t.a.(!i) t.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = t.a.(p) in
      t.a.(p) <- t.a.(!i);
      t.a.(!i) <- tmp;
      i := p
    done

  let pop_min t =
    if t.n = 0 then None
    else begin
      let top = t.a.(0) in
      t.n <- t.n - 1;
      if t.n > 0 then begin
        t.a.(0) <- t.a.(t.n);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < t.n && lt t.a.(l) t.a.(!s) then s := l;
          if r < t.n && lt t.a.(r) t.a.(!s) then s := r;
          if !s = !i then continue := false
          else begin
            let tmp = t.a.(!s) in
            t.a.(!s) <- t.a.(!i);
            t.a.(!i) <- tmp;
            i := !s
          end
        done
      end;
      Some (top.at, top.v)
    end
end

(* ------------------------------------------------------------------ *)
(* Shards *)

type shard = {
  s_id : int;
  s_backend : Simnvm.Backend.t;  (* raw (unfrozen) backend *)
  s_fm : Filemem.t option;
  s_frozen : bool ref;
  s_rt : Respct.Runtime.t;
  s_queue : req Admission.t;
  s_spans : Obs.Span.t;
  s_path : string option;
  mutable s_map : Pds.Hashmap_respct.t option;
  mutable s_down : bool;
  mutable s_served : int;  (* requests executed (incl. coalesced) *)
  mutable s_served_at_crash : int;
  mutable s_batches : int;
  mutable s_coalesced : int;
  mutable s_checkpoints : int;
  mutable s_active : int;  (* workers inside the serving loop *)
  mutable s_sealed : int;  (* largest epoch known sealed on the medium *)
  mutable s_sealed_at_crash : int;
  mutable s_last_flushed : int;
  s_digests : (int, int) Hashtbl.t;  (* File: epoch -> durable-image digest *)
}

(* Durability freeze: the SIGKILL instant for an in-process world. Loads
   and stores keep hitting the volatile mirror (the dying process's last
   instants), but nothing reaches the durable image any more. *)
let freezeable (b : Simnvm.Backend.t) frozen =
  {
    b with
    Simnvm.Backend.pwb = (fun a -> if not !frozen then b.Simnvm.Backend.pwb a);
    psync = (fun () -> if not !frozen then b.Simnvm.Backend.psync ());
    flush_all = (fun () -> if not !frozen then b.Simnvm.Backend.flush_all ());
  }

let pow2_ge n =
  let p = ref 1 in
  while !p < n do
    p := !p * 2
  done;
  !p

let shard_digest sh ~read =
  match sh.s_map with
  | None -> 0
  | Some m ->
      Prockill.digest_with ~read
        ~line_words:sh.s_backend.Simnvm.Backend.line_words
        ~fuel:sh.s_backend.Simnvm.Backend.nvm_words
        ~heads:(Pds.Hashmap_respct.heads m)
        ~buckets:(Pds.Hashmap_respct.buckets m)
        ~cbase:0 ~ncounters:0

(* Power-cut a shard's image and hold its verified recovery to the one
   durability verdict; the digest match is [None] unless the verdict
   walked the image to compare digests. *)
let audit sh fm ~sealed =
  Filemem.crash fm;
  let v =
    Respct.Recovery.run_verified_backend
      ~layout:(Respct.Runtime.layout sh.s_rt)
      (Filemem.backend fm)
  in
  let walked = ref false in
  let violations =
    Prockill.violations v ~sealed
      ~recorded:
        (Hashtbl.find_opt sh.s_digests
           v.Respct.Recovery.vreport.Respct.Recovery.failed_epoch)
      ~digest:(fun () ->
        walked := true;
        shard_digest sh ~read:(Filemem.persisted fm))
  in
  let digest_ok =
    List.for_all
      (function
        | Prockill.Snapshot_mismatch _ | Prockill.Walk_failed _ -> false
        | _ -> true)
      violations
  in
  (v, (if !walked then Some digest_ok else None), violations)

(* ------------------------------------------------------------------ *)
(* Reports *)

type shard_report = {
  sr_id : int;
  sr_served : int;
  sr_batches : int;
  sr_coalesced : int;
  sr_accepted : int;
  sr_rejected_full : int;
  sr_rejected_down : int;
  sr_max_depth : int;
  sr_checkpoints : int;
  sr_sealed : int;
  sr_stall_ns : float;
  sr_flush_ns : float;
  sr_down : bool;
}

type crash_report = {
  cr_shard : int;
  cr_at_ns : float;
  cr_verdict : string;
  cr_exact : bool;
  cr_failed_epoch : int;
  cr_sealed_at_crash : int;
  cr_digest_match : bool option;  (* None: the verdict compared no digest *)
  cr_violations : Prockill.violation list;  (* the durability verdict *)
  cr_dropped : int;  (* requests failed back to clients by the crash *)
  cr_recovery_ns : float;  (* virtual time of the verified recovery *)
  cr_survivor_mrps : float;  (* survivors' Mreq/s while the victim is down *)
}

type survivor_check = {
  sc_shard : int;
  sc_verdict : string;
  sc_failed_epoch : int;
  sc_sealed : int;
  sc_ok : bool;
}

type result = {
  r_cfg : config;
  r_makespan_ns : float;
  r_completed : int;
  r_failed : int;
  r_retried : int;
  r_rejected_full : int;
  r_rejected_down : int;
  r_mrps : float;  (* completed requests per virtual µs (Mreq/s) *)
  r_shards : shard_report list;
  r_stall_overlap_ns : float;  (* >= 2 shards stalled simultaneously *)
  r_crash : crash_report option;
  r_survivors : survivor_check list;
  r_final : (int * int) list option;
  r_metrics : Obs.Metrics.t;
  r_span_json : (int * Obs.Json.t) list;  (* per-shard span summaries *)
}

(* Virtual time during which >= 2 shards were inside a checkpoint stall:
   zero-ish means the rolling schedule really has no global pause. *)
let stall_overlap shards =
  let evs =
    List.concat_map
      (fun sh ->
        List.concat_map
          (fun sp ->
            if sp.Obs.Span.name = "checkpoint.stall" then
              [ (sp.Obs.Span.t0, 1); (sp.Obs.Span.t1, -1) ]
            else [])
          (Obs.Span.spans sh.s_spans))
      shards
  in
  let evs = List.sort compare evs in
  let active = ref 0 and last = ref 0.0 and overlap = ref 0.0 in
  List.iter
    (fun (t, d) ->
      if !active >= 2 then overlap := !overlap +. (t -. !last);
      active := !active + d;
      last := t)
    evs;
  !overlap

(* ------------------------------------------------------------------ *)
(* The run *)

let mix3 a b c =
  Router.mix (Router.mix ((a * 0x85EB_CA77) lxor (b * 0x9E37_79B1)) lxor c)

let run ?crash_at_ns ?(crash_shard = 0) cfg =
  if cfg.shards <= 0 || cfg.workers <= 0 then
    invalid_arg "Front.run: shards/workers";
  if cfg.sessions <= 0 || cfg.requests <= 0 then
    invalid_arg "Front.run: sessions/requests";
  (match (crash_at_ns, cfg.backend) with
  | Some _, Sim ->
      invalid_arg "Front.run: crash trials need the File backend"
  | Some _, File _ when not cfg.integrity ->
      invalid_arg "Front.run: crash trials need integrity mode"
  | _ -> ());
  (* The sealed-epoch crash oracle needs the classic synchronous seal
     (run_checkpoint returns at the seal); pipelining stays on for
     crash-free runs. *)
  let pipeline = cfg.pipeline && crash_at_ns = None in
  let victim = if cfg.shards = 0 then 0 else crash_shard mod cfg.shards in
  let ring = Router.create ~shards:cfg.shards ~vnodes:cfg.vnodes in
  let sched = Sched.create ~seed:cfg.seed () in

  (* Geometry: nodes are one line each, so size the heap from the keys a
     shard can ever hold (prefill stripe + worst-case fresh inserts). *)
  let per_shard_prefill = (cfg.prefill / cfg.shards) + 1 in
  let write_traffic =
    (cfg.sessions * cfg.requests * (100 - cfg.read_pct) / 100 / cfg.shards) + 1
  in
  let expected_keys = per_shard_prefill + write_traffic in
  let buckets = max 64 (min (1 lsl 16) (pow2_ge (expected_keys / 6 + 1))) in
  let nvm_words =
    if cfg.nvm_words > 0 then cfg.nvm_words
    else
      max (1 lsl 16)
        (pow2_ge
           ((2 * buckets) + (24 * expected_keys)
           + (2 * cfg.workers * cfg.registry_per_slot)
           + 16_384))
  in
  let dram_words = 1 lsl 14 in

  let rcfg =
    {
      Respct.Runtime.default_config with
      Respct.Runtime.period_ns = cfg.period_ns;
      Respct.Runtime.flusher_pool = 2;
      Respct.Runtime.max_threads = cfg.workers;
      Respct.Runtime.registry_per_slot = cfg.registry_per_slot;
      Respct.Runtime.integrity = cfg.integrity;
      Respct.Runtime.pipeline;
    }
  in

  let make_shard i =
    let queue =
      Admission.create ~name:(Printf.sprintf "shard%d" i) sched
        ~cap:cfg.queue_cap
    in
    let spans = Obs.Span.create ~keep:8192 () in
    let frozen = ref false in
    let backend, fm, env, path =
      match cfg.backend with
      | Sim ->
          let mcfg =
            {
              Simnvm.Memsys.default_config with
              Simnvm.Memsys.nvm_words;
              Simnvm.Memsys.dram_words;
              Simnvm.Memsys.seed = cfg.seed + (31 * i);
            }
          in
          let mem = Simnvm.Memsys.create mcfg in
          (Simnvm.Backend.of_memsys mem, None, Simsched.Env.make mem sched, None)
      | File dir ->
          let fcfg =
            {
              Filemem.default_config with
              Filemem.nvm_words;
              Filemem.dram_words;
              Filemem.evict_rate = 0.0;
              Filemem.seed = cfg.seed + (31 * i);
            }
          in
          let meta =
            {
              Filemem.max_threads = cfg.workers;
              Filemem.registry_per_slot = cfg.registry_per_slot;
              Filemem.integrity = cfg.integrity;
            }
          in
          let path = Filename.concat dir (Printf.sprintf "shard-%d.img" i) in
          let fm = Filemem.create ~meta fcfg ~path in
          let b = Filemem.backend fm in
          ( b,
            Some fm,
            Simsched.Env.make_backend (freezeable b frozen) sched,
            Some path )
    in
    let rt = Respct.Runtime.create ~cfg:rcfg env in
    Respct.Runtime.set_spans rt spans;
    {
      s_id = i;
      s_backend = backend;
      s_fm = fm;
      s_frozen = frozen;
      s_rt = rt;
      s_queue = queue;
      s_spans = spans;
      s_path = path;
      s_map = None;
      s_down = false;
      s_served = 0;
      s_served_at_crash = 0;
      s_batches = 0;
      s_coalesced = 0;
      s_checkpoints = 0;
      s_active = 0;
      s_sealed = 0;
      s_sealed_at_crash = 0;
      s_last_flushed = 0;
      s_digests = Hashtbl.create 64;
    }
  in
  let shards = Array.init cfg.shards make_shard in

  (* Pre-route the prefill stripes (host-level, before the sim starts). *)
  let prefill_of = Array.make cfg.shards [] in
  for k = cfg.prefill - 1 downto 0 do
    let s = Router.route ring k in
    prefill_of.(s) <- k :: prefill_of.(s)
  done;
  let prefill_of = Array.map Array.of_list prefill_of in
  (* per-shard count of workers done prefilling: no worker may serve
     traffic while a sibling's stripe is still inserting, or a late
     prefill insert could overwrite a client put *)
  let prefill_done = Array.make cfg.shards 0 in

  (* Telemetry *)
  let metrics = Obs.Metrics.create () in
  let m_completed = Obs.Metrics.counter metrics "requests.completed" in
  let m_failed = Obs.Metrics.counter metrics "requests.failed" in
  let m_retried = Obs.Metrics.counter metrics "requests.retried" in
  let m_rej_full = Obs.Metrics.counter metrics "reject.queue_full" in
  let m_rej_down = Obs.Metrics.counter metrics "reject.shard_down" in
  let h_latency = Obs.Metrics.histogram metrics "latency_ns" in
  let h_depth =
    Obs.Metrics.histogram metrics "queue_depth"
      ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048. |]
  in
  let h_batch =
    Obs.Metrics.histogram metrics "batch_size"
      ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
  in

  (* Completion channel: workers -> front-end. *)
  let idle_mu = Simsched.Mutex.create ~name:"front.idle" () in
  let idle_cv = Simsched.Condvar.create ~name:"front.idle" () in
  let completions : (req * float) list ref = ref [] in
  let push_completions rs =
    match rs with
    | [] -> ()
    | rs ->
        Simsched.Mutex.lock sched idle_mu;
        completions := List.rev_append rs !completions;
        Simsched.Condvar.signal sched idle_cv;
        Simsched.Mutex.unlock sched idle_mu
  in

  let stop_all = ref false in
  let crash_rep = ref None in

  (* ---------------- shard workers ---------------- *)
  let spawn_worker sh w =
    ignore
      (Respct.Runtime.spawn
         ~name:(Printf.sprintf "s%d-w%d" sh.s_id w)
         sh.s_rt ~slot:w
         (fun _ctx ->
           if w = 0 then
             sh.s_map <-
               Some (Pds.Hashmap_respct.create sh.s_rt ~slot:0 ~buckets);
           while Option.is_none sh.s_map do
             Sched.sleep sched 500.0
           done;
           let m = Option.get sh.s_map in
           (* prefill stripe, restart point after every insert *)
           let pf = prefill_of.(sh.s_id) in
           let i = ref w in
           while !i < Array.length pf do
             let key = pf.(!i) in
             ignore
               (Pds.Hashmap_respct.insert m ~slot:w ~key
                  ~value:(key lxor 0x5EED));
             Respct.Runtime.rp sh.s_rt ~slot:w 1;
             i := !i + cfg.workers
           done;
           prefill_done.(sh.s_id) <- prefill_done.(sh.s_id) + 1;
           while prefill_done.(sh.s_id) < cfg.workers do
             (* restart point keeps the wait quiescent for checkpoints *)
             Respct.Runtime.rp sh.s_rt ~slot:w 3;
             Sched.sleep sched 500.0
           done;
           sh.s_active <- sh.s_active + 1;
           let wait cv mu = Respct.Runtime.cond_wait sh.s_rt ~slot:w cv mu in
           let continue = ref true in
           while !continue do
             match Admission.take sh.s_queue ~max:cfg.batch_max ~wait with
             | [] -> continue := false
             | batch ->
                 sh.s_batches <- sh.s_batches + 1;
                 Obs.Metrics.observe h_batch (float_of_int (List.length batch));
                 (* put-coalescing: only the last put per key executes *)
                 let last_put = Hashtbl.create 8 in
                 List.iteri
                   (fun j r ->
                     if r.r_put <> None then Hashtbl.replace last_put r.r_key j)
                   batch;
                 let finished = ref [] in
                 List.iteri
                   (fun j r ->
                     if sh.s_down then begin
                       (* the crash cut this batch: the rest dies in flight *)
                       r.r_status <- Dropped;
                       finished := (r, Sched.now sched) :: !finished
                     end
                     else begin
                       (match r.r_put with
                       | Some v ->
                           if Hashtbl.find last_put r.r_key = j then
                             ignore
                               (Pds.Hashmap_respct.insert m ~slot:w ~key:r.r_key
                                  ~value:v)
                           else sh.s_coalesced <- sh.s_coalesced + 1
                       | None ->
                           ignore
                             (Pds.Hashmap_respct.search m ~slot:w ~key:r.r_key));
                       sh.s_served <- sh.s_served + 1;
                       Respct.Runtime.rp sh.s_rt ~slot:w 2;
                       r.r_status <- Done;
                       finished := (r, Sched.now sched) :: !finished
                     end)
                   batch;
                 push_completions (List.rev !finished)
           done;
           sh.s_active <- sh.s_active - 1))
  in

  (* ---------------- rolling checkpoint coordinators ---------------- *)
  let spawn_coordinator sh =
    ignore
      (Sched.spawn
         ~name:(Printf.sprintf "s%d-ckpt" sh.s_id)
         sched
         (fun () ->
           while Option.is_none sh.s_map do
             Sched.sleep sched 500.0
           done;
           (* stagger the first deadline so the shards' pauses roll *)
           let deadline =
             ref
               (Sched.now sched
               +. cfg.period_ns
                  *. float_of_int (sh.s_id + 1)
                  /. float_of_int cfg.shards)
           in
           let continue = ref true in
           while !continue do
             Sched.sleep_until sched !deadline;
             if !stop_all || sh.s_down then continue := false
             else begin
               let before = sh.s_last_flushed in
               (* the digest epoch [e] must recover to is the logical
                  state at this quiescent instant: under pipelining the
                  walk that persists it is still to come *)
               Respct.Runtime.run_checkpoint sh.s_rt ~on_flushed:(fun e ->
                   if not sh.s_down then begin
                     sh.s_last_flushed <- e;
                     if sh.s_fm <> None then
                       Hashtbl.replace sh.s_digests e
                         (shard_digest sh
                            ~read:sh.s_backend.Simnvm.Backend.peek)
                   end);
               if not sh.s_down then begin
                 sh.s_checkpoints <- sh.s_checkpoints + 1;
                 (* pipeline: the seal of epoch e lands while e+1 runs, so
                    at this return only the previous flush is sealed *)
                 let sealed = if pipeline then before else sh.s_last_flushed in
                 if sealed > sh.s_sealed then sh.s_sealed <- sealed
               end;
               deadline := !deadline +. cfg.period_ns
             end
           done;
           (* release the idle flusher fibers or the run cannot end *)
           Respct.Runtime.stop sh.s_rt))
  in

  (* ---------------- front-end fiber ---------------- *)
  let heap : req Eheap.t = Eheap.create () in
  let left = Array.make cfg.sessions cfg.requests in
  let live = ref cfg.sessions in
  let zipf = Apps.Ycsb.make_zipf ~theta:cfg.theta cfg.keys in
  let timing_rng = Rng.create (cfg.seed lxor 0x74_11) in
  let exp_draw rng mean =
    if mean <= 0.0 then 0.0 else -.mean *. log (1.0 -. Rng.float rng)
  in
  let draw_req sid idx =
    let rng = Rng.create (mix3 cfg.seed sid idx) in
    let key =
      if cfg.disjoint_keys then begin
        let span = max 1 (cfg.keys / cfg.sessions) in
        min (cfg.keys - 1) ((sid * span) + Rng.int rng span)
      end
      else Apps.Ycsb.scramble (Apps.Ycsb.sample_zipf zipf rng) cfg.keys
    in
    let put =
      if Rng.int rng 100 >= cfg.read_pct then
        Some (Rng.bits rng land 0xFFFFF)
      else None
    in
    {
      r_sid = sid;
      r_key = key;
      r_put = put;
      r_submit = 0.0;
      r_retries = cfg.retries;
      r_status = Pending;
    }
  in
  ignore
    (Sched.spawn ~name:"front" sched (fun () ->
         (* session arrivals: a Poisson-ish ramp over the arrival gap *)
         let at = ref 0.0 in
         for sid = 0 to cfg.sessions - 1 do
           at := !at +. exp_draw timing_rng cfg.arrival_ns;
           let r = draw_req sid 0 in
           r.r_submit <- !at;
           Eheap.push heap (!at +. cfg.net_ns) r
         done;
         let rec advance sid at_client =
           left.(sid) <- left.(sid) - 1;
           if left.(sid) = 0 then decr live
           else begin
             let idx = cfg.requests - left.(sid) in
             let r = draw_req sid idx in
             let t_send = at_client +. exp_draw timing_rng cfg.think_ns in
             r.r_submit <- t_send;
             Eheap.push heap (t_send +. cfg.net_ns) r
           end
         and retry_or_fail r at_client =
           if r.r_retries > 0 then begin
             r.r_retries <- r.r_retries - 1;
             r.r_status <- Pending;
             Obs.Metrics.incr m_retried;
             let t_send = at_client +. exp_draw timing_rng cfg.retry_ns in
             Eheap.push heap (t_send +. cfg.net_ns) r
           end
           else begin
             Obs.Metrics.incr m_failed;
             advance r.r_sid at_client
           end
         and handle (r, at) =
           let at_client = at +. cfg.net_ns in
           match r.r_status with
           | Done ->
               Obs.Metrics.incr m_completed;
               Obs.Metrics.observe h_latency (at_client -. r.r_submit);
               advance r.r_sid at_client
           | Dropped -> retry_or_fail r at_client
           | Pending -> assert false
         and submit r t_arrive =
           let sh = shards.(Router.route ring r.r_key) in
           match Admission.offer sh.s_queue r with
           | Ok d -> Obs.Metrics.observe h_depth (float_of_int d)
           | Error rej ->
               (match rej with
               | Admission.Queue_full -> Obs.Metrics.incr m_rej_full
               | Admission.Shard_down -> Obs.Metrics.incr m_rej_down);
               retry_or_fail r (t_arrive +. cfg.net_ns)
         in
         let drain () =
           Simsched.Mutex.lock sched idle_mu;
           let got = List.rev !completions in
           completions := [];
           Simsched.Mutex.unlock sched idle_mu;
           List.iter handle got
         in
         let rec loop () =
           drain ();
           if !live > 0 then
             match Eheap.pop_min heap with
             | Some (t, r) ->
                 Sched.sleep_until sched t;
                 drain ();
                 submit r t;
                 loop ()
             | None ->
                 Simsched.Mutex.lock sched idle_mu;
                 while !completions = [] && !live > 0 do
                   Simsched.Condvar.wait sched idle_cv idle_mu
                 done;
                 Simsched.Mutex.unlock sched idle_mu;
                 loop ()
         in
         loop ();
         (* all sessions finished: shut the shards down *)
         stop_all := true;
         Array.iter (fun sh -> ignore (Admission.close sh.s_queue)) shards))

  (* ---------------- crash fiber (File backend only) ---------------- *)
  ;
  (match crash_at_ns with
  | None -> ()
  | Some t_crash ->
      ignore
        (Sched.spawn ~name:"svc-fault" sched (fun () ->
             Sched.sleep_until sched t_crash;
             let sh = shards.(victim) in
             if (not !stop_all) && not sh.s_down then begin
               let at = Sched.now sched in
               sh.s_down <- true;
               sh.s_sealed_at_crash <- sh.s_sealed;
               Array.iter (fun s -> s.s_served_at_crash <- s.s_served) shards;
               sh.s_frozen := true;
               (* queued requests die with the shard; fail them back *)
               let leftovers = Admission.close sh.s_queue in
               List.iter (fun r -> r.r_status <- Dropped) leftovers;
               push_completions (List.map (fun r -> (r, at)) leftovers);
               (* let the dying workers drain out of the serving loop *)
               while sh.s_active > 0 do
                 Sched.sleep sched 2_000.0
               done;
               (* power cut on the image, then verified recovery in-sim:
                  the survivors keep serving while this fiber recovers *)
               let t0 = Sched.now sched in
               let v, digest_match, violations =
                 audit sh (Option.get sh.s_fm) ~sealed:sh.s_sealed_at_crash
               in
               (* the walk reads the post-crash [persisted] view, which the
                  simulator does not charge; add the modeled media scan *)
               let scan_lines =
                 (sh.s_backend.Simnvm.Backend.nvm_words
                 + sh.s_backend.Simnvm.Backend.line_words - 1)
                 / sh.s_backend.Simnvm.Backend.line_words
               in
               let recovery_ns =
                 Sched.now sched -. t0
                 +. (float_of_int scan_lines
                    *. Filemem.default_config.Filemem.latency
                         .Simnvm.Latency.nvm_miss_ns)
               in
               crash_rep :=
                 Some
                   {
                     cr_shard = victim;
                     cr_at_ns = at;
                     cr_verdict =
                       Fmt.str "%a" Respct.Recovery.pp_verdict
                         v.Respct.Recovery.verdict;
                     cr_exact =
                       Respct.Recovery.exact_image v.Respct.Recovery.verdict;
                     cr_failed_epoch =
                       v.Respct.Recovery.vreport.Respct.Recovery.failed_epoch;
                     cr_sealed_at_crash = sh.s_sealed_at_crash;
                     cr_digest_match = digest_match;
                     cr_violations = violations;
                     cr_dropped = List.length leftovers;
                     cr_recovery_ns = recovery_ns;
                     cr_survivor_mrps = 0.0 (* filled in after the run *);
                   }
             end)));

  Array.iter
    (fun sh ->
      spawn_coordinator sh;
      for w = 0 to cfg.workers - 1 do
        spawn_worker sh w
      done)
    shards;

  (match Sched.run sched with
  | Sched.Completed -> ()
  | Sched.Crash_interrupt _ -> failwith "Front.run: unexpected crash outcome");

  let makespan = Sched.elapsed sched in

  (* survivor throughput while the victim was down *)
  let crash =
    match !crash_rep with
    | None -> None
    | Some cr ->
        let post =
          Array.fold_left
            (fun acc sh ->
              if sh.s_id = cr.cr_shard then acc
              else acc + (sh.s_served - sh.s_served_at_crash))
            0 shards
        in
        let window = makespan -. cr.cr_at_ns in
        Some
          {
            cr with
            cr_survivor_mrps =
              (if window > 0.0 then float_of_int post *. 1e3 /. window else 0.0);
          }
  in

  (* final logical bindings (coherent view), for the routing oracle *)
  let final =
    if not cfg.collect_final then None
    else
      Some
        (Array.to_list shards
        |> List.concat_map (fun sh ->
               match sh.s_map with
               | None -> []
               | Some m ->
                   Pds.Hashmap_respct.bindings_of
                     ~read:sh.s_backend.Simnvm.Backend.peek
                     ~line_words:sh.s_backend.Simnvm.Backend.line_words
                     ~fuel:sh.s_backend.Simnvm.Backend.nvm_words
                     ~heads:(Pds.Hashmap_respct.heads m)
                     ~buckets:(Pds.Hashmap_respct.buckets m))
        |> List.sort compare)
  in

  (* end-of-run durability audit: power-cut every surviving file image
     and hold verified recovery to an exact image and the same verdict *)
  let survivors =
    Array.to_list shards
    |> List.filter_map (fun sh ->
           match sh.s_fm with
           | Some fm when (not sh.s_down) && cfg.integrity ->
               let v, _, violations = audit sh fm ~sealed:sh.s_sealed in
               Some
                 {
                   sc_shard = sh.s_id;
                   sc_verdict =
                     Fmt.str "%a" Respct.Recovery.pp_verdict
                       v.Respct.Recovery.verdict;
                   sc_failed_epoch =
                     v.Respct.Recovery.vreport.Respct.Recovery.failed_epoch;
                   sc_sealed = sh.s_sealed;
                   sc_ok =
                     Respct.Recovery.exact_image v.Respct.Recovery.verdict
                     && violations = [];
                 }
           | _ -> None)
  in

  let shard_reports =
    Array.to_list shards
    |> List.map (fun sh ->
           let st = Respct.Runtime.stats sh.s_rt in
           {
             sr_id = sh.s_id;
             sr_served = sh.s_served;
             sr_batches = sh.s_batches;
             sr_coalesced = sh.s_coalesced;
             sr_accepted = Admission.accepted sh.s_queue;
             sr_rejected_full = Admission.rejected_full sh.s_queue;
             sr_rejected_down = Admission.rejected_down sh.s_queue;
             sr_max_depth = Admission.max_depth sh.s_queue;
             sr_checkpoints = sh.s_checkpoints;
             sr_sealed = sh.s_sealed;
             sr_stall_ns = st.Respct.Runtime.stall_ns;
             sr_flush_ns = st.Respct.Runtime.flush_ns;
             sr_down = sh.s_down;
           })
  in
  let span_json =
    Array.to_list shards
    |> List.map (fun sh -> (sh.s_id, Obs.Span.to_json sh.s_spans))
  in
  let overlap = stall_overlap (Array.to_list shards) in

  (* drop the image files we created *)
  Array.iter
    (fun sh ->
      match (sh.s_fm, sh.s_path) with
      | Some fm, Some path ->
          Filemem.close fm;
          (try Sys.remove path with Sys_error _ -> ())
      | _ -> ())
    shards;

  let completed = Obs.Metrics.value m_completed in
  {
    r_cfg = cfg;
    r_makespan_ns = makespan;
    r_completed = completed;
    r_failed = Obs.Metrics.value m_failed;
    r_retried = Obs.Metrics.value m_retried;
    r_rejected_full = Obs.Metrics.value m_rej_full;
    r_rejected_down = Obs.Metrics.value m_rej_down;
    r_mrps =
      (if makespan > 0.0 then float_of_int completed *. 1e3 /. makespan
       else 0.0);
    r_shards = shard_reports;
    r_stall_overlap_ns = overlap;
    r_crash = crash;
    r_survivors = survivors;
    r_final = final;
    r_metrics = metrics;
    r_span_json = span_json;
  }

(* ------------------------------------------------------------------ *)
(* JSON export (schema respct-service/v1). Everything in here is
   virtual-time or counter data, so same seed => byte-identical text. *)

let json_of_config cfg =
  Obs.Json.Obj
    [
      ("shards", Obs.Json.Int cfg.shards);
      ("vnodes", Obs.Json.Int cfg.vnodes);
      ("workers", Obs.Json.Int cfg.workers);
      ("sessions", Obs.Json.Int cfg.sessions);
      ("requests", Obs.Json.Int cfg.requests);
      ("keys", Obs.Json.Int cfg.keys);
      ("prefill", Obs.Json.Int cfg.prefill);
      ("theta", Obs.Json.Float cfg.theta);
      ("read_pct", Obs.Json.Int cfg.read_pct);
      ("arrival_ns", Obs.Json.Float cfg.arrival_ns);
      ("think_ns", Obs.Json.Float cfg.think_ns);
      ("net_ns", Obs.Json.Float cfg.net_ns);
      ("queue_cap", Obs.Json.Int cfg.queue_cap);
      ("batch_max", Obs.Json.Int cfg.batch_max);
      ("retries", Obs.Json.Int cfg.retries);
      ("period_ns", Obs.Json.Float cfg.period_ns);
      ("pipeline", Obs.Json.Bool cfg.pipeline);
      ("integrity", Obs.Json.Bool cfg.integrity);
      ("seed", Obs.Json.Int cfg.seed);
      ( "backend",
        Obs.Json.String (match cfg.backend with Sim -> "sim" | File _ -> "file")
      );
    ]

let json_of_shard sr =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int sr.sr_id);
      ("served", Obs.Json.Int sr.sr_served);
      ("batches", Obs.Json.Int sr.sr_batches);
      ("coalesced", Obs.Json.Int sr.sr_coalesced);
      ("accepted", Obs.Json.Int sr.sr_accepted);
      ("rejected_full", Obs.Json.Int sr.sr_rejected_full);
      ("rejected_down", Obs.Json.Int sr.sr_rejected_down);
      ("max_depth", Obs.Json.Int sr.sr_max_depth);
      ("checkpoints", Obs.Json.Int sr.sr_checkpoints);
      ("sealed_epoch", Obs.Json.Int sr.sr_sealed);
      ("stall_ns", Obs.Json.Float sr.sr_stall_ns);
      ("flush_ns", Obs.Json.Float sr.sr_flush_ns);
      ("down", Obs.Json.Bool sr.sr_down);
    ]

let json_of_crash cr =
  Obs.Json.Obj
    [
      ("shard", Obs.Json.Int cr.cr_shard);
      ("at_ns", Obs.Json.Float cr.cr_at_ns);
      ("verdict", Obs.Json.String cr.cr_verdict);
      ("exact_image", Obs.Json.Bool cr.cr_exact);
      ("failed_epoch", Obs.Json.Int cr.cr_failed_epoch);
      ("sealed_at_crash", Obs.Json.Int cr.cr_sealed_at_crash);
      ( "lost_sealed",
        Obs.Json.Bool
          (List.exists
             (function Prockill.Lost_sealed_epoch _ -> true | _ -> false)
             cr.cr_violations) );
      ( "digest_match",
        match cr.cr_digest_match with
        | None -> Obs.Json.Null
        | Some b -> Obs.Json.Bool b );
      ("dropped", Obs.Json.Int cr.cr_dropped);
      ("recovery_ns", Obs.Json.Float cr.cr_recovery_ns);
      ("survivor_mrps", Obs.Json.Float cr.cr_survivor_mrps);
    ]

let json_of_survivor sc =
  Obs.Json.Obj
    [
      ("shard", Obs.Json.Int sc.sc_shard);
      ("verdict", Obs.Json.String sc.sc_verdict);
      ("failed_epoch", Obs.Json.Int sc.sc_failed_epoch);
      ("sealed_epoch", Obs.Json.Int sc.sc_sealed);
      ("ok", Obs.Json.Bool sc.sc_ok);
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "respct-service/v1");
      ("config", json_of_config r.r_cfg);
      ("makespan_ns", Obs.Json.Float r.r_makespan_ns);
      ("completed", Obs.Json.Int r.r_completed);
      ("failed", Obs.Json.Int r.r_failed);
      ("retried", Obs.Json.Int r.r_retried);
      ("rejected_full", Obs.Json.Int r.r_rejected_full);
      ("rejected_down", Obs.Json.Int r.r_rejected_down);
      ("throughput_mrps", Obs.Json.Float r.r_mrps);
      ("stall_overlap_ns", Obs.Json.Float r.r_stall_overlap_ns);
      ("shards", Obs.Json.List (List.map json_of_shard r.r_shards));
      ( "crash",
        match r.r_crash with None -> Obs.Json.Null | Some c -> json_of_crash c
      );
      ("survivors", Obs.Json.List (List.map json_of_survivor r.r_survivors));
      ("metrics", Obs.Metrics.to_json r.r_metrics);
      ( "spans",
        Obs.Json.List
          (List.map
             (fun (i, j) ->
               Obs.Json.Obj [ ("shard", Obs.Json.Int i); ("spans", j) ])
             r.r_span_json) );
    ]
