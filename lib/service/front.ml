(* Request-level serving front-end over N independently-checkpointed
   ResPCT shards: topology, constants and the crash trial are in
   front.mli and DESIGN.md §15.

   Sessions are *not* fibers: each fiber costs its own stack and effect
   continuation, so 10k session fibers would be heavy to hold. Instead
   one front-end fiber multiplexes all sessions. A closed-loop session
   has one request in flight at most, so a request is its session id:
   the event heap, the admission queues, the worker batches and the
   completion channel (an int FIFO under a mutex + condvar) all carry
   ids, and a request's fields live in per-session arrays. Network
   latency is one constant [net_ns] per hop (client->shard and
   shard->client), charged on the event times themselves, so queueing
   delay and propagation delay both land in the measured latency.

   One run is one [world] record, built by [build]; its fibers are the
   top-level functions [front_end], [crash], [coordinator] and [worker]
   over it, and [report] reads it once the scheduler is done. *)

module Sched = Simsched.Scheduler
module Rng = Simnvm.Rng

type backend_kind = Sim | File of string

type config = {
  shards : int;
  workers : int;  (* per shard *)
  sessions : int;
  requests : int;  (* per session (closed loop) *)
  keys : int;
  prefill : int;  (* keys [0, prefill) inserted before traffic starts *)
  theta : float;  (* zipfian skew of the key popularity *)
  read_pct : int;
  arrival_ns : float;  (* mean inter-session-arrival gap *)
  think_ns : float;  (* mean client think time between requests *)
  queue_cap : int;
  batch_max : int;
  period_ns : float;  (* per-shard checkpoint period *)
  disjoint_keys : bool;
      (* partition the keyspace by session (conflict-free traffic: the
         routing-differential oracle needs writes that never race) *)
  collect_final : bool;  (* return the merged final (key, value) map *)
  seed : int;
  backend : backend_kind;
  nvm_words : int;  (* per shard; 0 = size from prefill + traffic *)
  registry_per_slot : int;
}

(* Settings no caller varies. [json_of_config] prints them beside the
   config, so the respct-service/v1 document keeps its fields. *)
let vnodes = 64 (* ring points per shard *)
let net_ns = 3_000.0 (* one-way network propagation *)
let retries = 2 (* per request, on typed rejection or drop *)
let retry_ns = 10_000.0 (* mean client backoff before a retry *)

(* Every shard runs integrity-mode images and pipelined checkpoints,
   except that a crash trial forces classic ones (see [run]); the
   document prints [pipeline = true] for a crash trial too. *)
let pipeline = true
let integrity = true

let smoke =
  {
    shards = 4;
    workers = 2;
    sessions = 200;
    requests = 10;
    keys = 20_000;
    prefill = 5_000;
    theta = 0.99;
    read_pct = 90;
    arrival_ns = 2_000.0;
    think_ns = 20_000.0;
    queue_cap = 256;
    batch_max = 16;
    period_ns = 200_000.0;
    disjoint_keys = false;
    collect_final = false;
    seed = 1;
    backend = Sim;
    nvm_words = 0;
    registry_per_slot = 1 lsl 14;
  }

(* 1M+ keys, 10k+ concurrent sessions, zipfian hot-key storm. Tighter
   arrivals + more requests per session keep all 10k sessions genuinely
   concurrent for most of the run. *)
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

(* The first field of [cfg] that [run] refuses, if any. *)
let validate ?crash_at_ns ?(crash_shard = 0) cfg =
  if cfg.shards <= 0 || cfg.workers <= 0 then Error "shards/workers"
  else if cfg.sessions <= 0 || cfg.requests <= 0 then Error "sessions/requests"
  else if cfg.keys <= 0 then Error "keys"
  else if cfg.batch_max <= 0 then Error "batch_max"
  else if cfg.read_pct < 0 || cfg.read_pct > 100 then Error "read_pct"
  else if crash_shard < 0 then Error "crash_shard"
  else if crash_at_ns <> None && cfg.backend = Sim then
    Error "crash trials need the File backend"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Requests and sessions *)

let st_pending = 0
let st_done = 1
let st_dropped = 2

let mix3 a b c =
  Router.mix (Router.mix ((a * 0x85EB_CA77) lxor (b * 0x9E37_79B1)) lxor c)

let[@inline] exp_draw rng mean =
  if mean <= 0.0 then 0.0 else -.mean *. log (1.0 -. Rng.float rng)

(* Binary min-heap of session wake-ups over parallel arrays, ordered by
   (instant, insertion sequence). That order is strict and total, so the
   pop order, hence the whole run, is deterministic. A session has at
   most one pending event, so [sessions] slots never overflow. *)
module Eheap = struct
  type t = {
    at : float array;
    seq : int array;
    sid : int array;
    mutable n : int;
    mutable next : int;  (* the next insertion sequence *)
  }

  let create cap =
    {
      at = Array.make cap 0.0;
      seq = Array.make cap 0;
      sid = Array.make cap 0;
      n = 0;
      next = 0;
    }

  let[@inline] is_empty t = t.n = 0

  (* The earliest instant; read it before {!pop}. *)
  let[@inline] top_at t = t.at.(0)

  let[@inline] move t ~src ~dst =
    t.at.(dst) <- t.at.(src);
    t.seq.(dst) <- t.seq.(src);
    t.sid.(dst) <- t.sid.(src)

  (* Slot [i] orders before the entry ([at], [seq]). *)
  let[@inline] earlier t i at seq =
    t.at.(i) < at || (t.at.(i) = at && t.seq.(i) < seq)

  let[@inline] set t i at seq sid =
    t.at.(i) <- at;
    t.seq.(i) <- seq;
    t.sid.(i) <- sid

  (* Sift a hole up from the end, then fill it. *)
  let[@inline] push t at sid =
    let seq = t.next in
    t.next <- seq + 1;
    let i = ref t.n in
    t.n <- t.n + 1;
    while !i > 0 && not (earlier t ((!i - 1) / 2) at seq) do
      let p = (!i - 1) / 2 in
      move t ~src:p ~dst:!i;
      i := p
    done;
    set t !i at seq sid

  (* Remove the earliest entry and return its session: the last entry
     sifts down from the root's hole. *)
  let pop t =
    let top = t.sid.(0) in
    let n = t.n - 1 in
    t.n <- n;
    let at = t.at.(n) and seq = t.seq.(n) and sid = t.sid.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < n && earlier t (l + 1) t.at.(l) t.seq.(l) then l + 1 else l
      in
      if c < n && earlier t c at seq then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    done;
    if n > 0 then set t !i at seq sid;
    top
end

(* Completion channel, workers -> front end: the ids of finished
   requests in FIFO order. The front end swaps [ids] with [spare] under
   [mu] and handles the swapped-out ids outside it. Each session is in
   the channel at most once, so [sessions] slots never overflow. *)
type completions = {
  mu : Simsched.Mutex.t;
  cv : Simsched.Condvar.t;
  mutable ids : int array;
  mutable n : int;
  mutable spare : int array;
}

let completions cap =
  {
    mu = Simsched.Mutex.create ~name:"front.idle" ();
    cv = Simsched.Condvar.create ();
    ids = Array.make cap 0;
    n = 0;
    spare = Array.make cap 0;
  }

(* Post [buf.(0 .. n-1)] under one lock and wake the front end; nothing
   to post takes no lock. *)
let post sched c buf n =
  if n > 0 then begin
    Simsched.Mutex.lock sched c.mu;
    for i = 0 to n - 1 do
      c.ids.(c.n + i) <- buf.(i)
    done;
    c.n <- c.n + n;
    Simsched.Condvar.signal sched c.cv;
    Simsched.Mutex.unlock sched c.mu
  end

(* Take every posted id under the lock, then hand each to [handle]. *)
let drain sched c handle =
  Simsched.Mutex.lock sched c.mu;
  let got = c.ids and n = c.n in
  c.ids <- c.spare;
  c.spare <- got;
  c.n <- 0;
  Simsched.Mutex.unlock sched c.mu;
  for i = 0 to n - 1 do
    handle got.(i)
  done

(* ------------------------------------------------------------------ *)
(* Shards *)

type shard = {
  s_id : int;
  s_backend : Simnvm.Backend.t;  (* raw (unfrozen) backend *)
  s_file : (Filemem.t * string) option;  (* File: the image and its path *)
  s_frozen : bool ref;
  s_rt : Respct.Runtime.t;
  s_queue : Admission.t;  (* session ids *)
  s_spans : Obs.Span.t;
  mutable s_prefill : int array;  (* the prefill keys this shard owns *)
  mutable s_prefilled : int;
      (* workers done prefilling: no worker may serve traffic while a
         sibling's stripe is still inserting, or a late prefill insert
         could overwrite a client put *)
  mutable s_map : Pds.Hashmap_respct.t option;
  mutable s_down : bool;
  mutable s_served : int;  (* requests executed (incl. coalesced) *)
  mutable s_batches : int;
  mutable s_coalesced : int;
  mutable s_checkpoints : int;
  mutable s_active : int;  (* workers inside the serving loop *)
  mutable s_sealed : int;  (* largest epoch known sealed on the medium *)
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

(* Geometry: nodes are one line each, so size the heap from the keys a
   shard can ever hold (prefill stripe + worst-case fresh inserts).
   Returns the map's buckets and the per-shard NVM words. *)
let geometry cfg =
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
  (buckets, nvm_words)

let make_shard cfg sched rcfg ~nvm_words i =
  let queue =
    Admission.create ~name:(Printf.sprintf "shard%d" i) sched
      ~cap:cfg.queue_cap
  in
  (* every span is kept: [stall_overlap] sweeps all the stall intervals *)
  let spans = Obs.Span.create ~keep:max_int () in
  let frozen = ref false in
  let dram_words = 1 lsl 14 and seed = cfg.seed + (31 * i) in
  let backend, file, env =
    match cfg.backend with
    | Sim ->
        let mem =
          Simnvm.Memsys.create
            {
              Simnvm.Memsys.default_config with
              Simnvm.Memsys.nvm_words;
              dram_words;
              seed;
            }
        in
        (Simnvm.Backend.of_memsys mem, None, Simsched.Env.make mem sched)
    | File dir ->
        let fcfg =
          {
            Filemem.default_config with
            Filemem.nvm_words;
            dram_words;
            evict_rate = 0.0;
            seed;
          }
        in
        let meta =
          {
            Filemem.max_threads = cfg.workers;
            registry_per_slot = cfg.registry_per_slot;
            integrity;
          }
        in
        let path = Filename.concat dir (Printf.sprintf "shard-%d.img" i) in
        let fm = Filemem.create ~meta fcfg ~path in
        let b = Filemem.backend fm in
        let env = Simsched.Env.make_backend (freezeable b frozen) sched in
        (b, Some (fm, path), env)
  in
  let rt = Respct.Runtime.create ~cfg:rcfg env in
  Respct.Runtime.set_spans rt spans;
  {
    s_id = i;
    s_backend = backend;
    s_file = file;
    s_frozen = frozen;
    s_rt = rt;
    s_queue = queue;
    s_spans = spans;
    s_prefill = [||];
    s_prefilled = 0;
    s_map = None;
    s_down = false;
    s_served = 0;
    s_batches = 0;
    s_coalesced = 0;
    s_checkpoints = 0;
    s_active = 0;
    s_sealed = 0;
    s_last_flushed = 0;
    s_digests = Hashtbl.create 64;
  }

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
      (Array.to_list shards)
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
(* The run: one world record, its fibers and its report *)

(* What the crash fiber saw; [report] builds the crash report from it. *)
type crash_facts = {
  cf_shard : int;
  cf_at : float;
  cf_sealed : int;  (* the victim's sealed epoch at the crash *)
  cf_served : int;  (* requests the survivors had served by then *)
  cf_dropped : int;
  cf_recovery_ns : float;
  cf_audit : Respct.Recovery.verified * bool option * Prockill.violation list;
}

type world = {
  cfg : config;
  sched : Sched.t;
  ring : Router.t;
  buckets : int;  (* per shard map *)
  pipelined : bool;  (* false in a crash trial: its oracle needs the seal *)
  shard : shard array;
  (* A closed-loop session never has more than one request in flight, so
     a request is named by its session id and its fields live in these
     per-session arrays. The id sits in exactly one place at a time: the
     event heap, a shard's admission queue, a worker's batch, or the
     completion channel. Instants are [float array]s, so storing one
     boxes nothing. *)
  key : int array;
  put : int array;  (* the value a put stores; -1 for a get *)
  retries : int array;  (* retries left to the in-flight request *)
  status : int array;  (* [st_pending], [st_done] or [st_dropped] *)
  sent : float array;  (* client-side send instant *)
  at_shard : float array;
      (* the last instant the shard handled the request: its arrival
         (a rejection answers at once), then its execution or drop; the
         client hears of it [net_ns] later *)
  left : int array;  (* requests the session has still to finish *)
  done_ch : completions;
  heap : Eheap.t;
  zipf : Apps.Ycsb.zipf;
  timing_rng : Rng.t;  (* arrivals, think times and backoffs *)
  metrics : Obs.Metrics.t;
  m_completed : Obs.Metrics.counter;
  m_failed : Obs.Metrics.counter;
  m_retried : Obs.Metrics.counter;
  m_rej_full : Obs.Metrics.counter;
  m_rej_down : Obs.Metrics.counter;
  h_latency : Obs.Metrics.histogram;
  h_depth : Obs.Metrics.histogram;
  h_batch : Obs.Metrics.histogram;
  mutable live : int;  (* sessions with requests left *)
  mutable stop_all : bool;  (* every session finished *)
  mutable crashed : crash_facts option;
}

(* Draw request [idx] of session [sid] into the session's slots. The
   stream is a function of (seed, session, index) alone, whatever the
   shard count. Put values are 20 bits, so -1 is free to mean a get. *)
let draw_req w sid idx =
  let cfg = w.cfg in
  let rng = Rng.create (mix3 cfg.seed sid idx) in
  w.key.(sid) <-
    (if cfg.disjoint_keys then begin
       let span = max 1 (cfg.keys / cfg.sessions) in
       min (cfg.keys - 1) ((sid * span) + Rng.int rng span)
     end
     else Apps.Ycsb.scramble (Apps.Ycsb.sample_zipf w.zipf rng) cfg.keys);
  w.put.(sid) <-
    (if Rng.int rng 100 >= cfg.read_pct then Rng.bits rng land 0xFFFFF
     else -1);
  w.retries.(sid) <- retries;
  w.status.(sid) <- st_pending

(* Put-coalescing: the put at [batch.(j)] is superseded when a later put
   in the same [n]-request batch writes its key (last write wins). A
   batch holds at most [batch_max] requests, so a scan does the work of
   a per-batch table. *)
let superseded w batch j n =
  let key = w.key.(batch.(j)) in
  let i = ref (j + 1) in
  while
    !i < n
    &&
    let sid = batch.(!i) in
    not (w.put.(sid) >= 0 && w.key.(sid) = key)
  do
    incr i
  done;
  !i < n

let build ~pipelined cfg =
  let ring = Router.create ~shards:cfg.shards ~vnodes in
  let sched = Sched.create ~seed:cfg.seed () in
  let buckets, nvm_words = geometry cfg in
  let rcfg =
    {
      Respct.Runtime.default_config with
      Respct.Runtime.period_ns = cfg.period_ns;
      flusher_pool = 2;
      max_threads = cfg.workers;
      registry_per_slot = cfg.registry_per_slot;
      integrity;
      pipeline = pipelined;
    }
  in
  let shard = Array.init cfg.shards (make_shard cfg sched rcfg ~nvm_words) in
  (* pre-route the prefill stripes (host-level, before the sim starts),
     once the shards exist: routing first raised full-size kv-service's
     peak heap by 2.6 MiB *)
  let stripes = Array.make cfg.shards [] in
  for k = cfg.prefill - 1 downto 0 do
    let s = Router.route ring k in
    stripes.(s) <- k :: stripes.(s)
  done;
  Array.iteri (fun i sh -> sh.s_prefill <- Array.of_list stripes.(i)) shard;
  (* registration order is the order of the document's metrics *)
  let metrics = Obs.Metrics.create () in
  let counter = Obs.Metrics.counter metrics in
  let m_completed = counter "requests.completed" in
  let m_failed = counter "requests.failed" in
  let m_retried = counter "requests.retried" in
  let m_rej_full = counter "reject.queue_full" in
  let m_rej_down = counter "reject.shard_down" in
  let h_latency = Obs.Metrics.histogram metrics "latency_ns" in
  let h_depth =
    Obs.Metrics.histogram metrics "queue_depth"
      ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048. |]
  in
  let h_batch =
    Obs.Metrics.histogram metrics "batch_size"
      ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
  in
  {
    cfg;
    sched;
    ring;
    buckets;
    pipelined;
    shard;
    key = Array.make cfg.sessions 0;
    put = Array.make cfg.sessions (-1);
    retries = Array.make cfg.sessions 0;
    status = Array.make cfg.sessions st_pending;
    sent = Array.make cfg.sessions 0.0;
    at_shard = Array.make cfg.sessions 0.0;
    left = Array.make cfg.sessions cfg.requests;
    done_ch = completions cfg.sessions;
    heap = Eheap.create cfg.sessions;
    zipf = Apps.Ycsb.make_zipf ~theta:cfg.theta cfg.keys;
    timing_rng = Rng.create (cfg.seed lxor 0x74_11);
    metrics;
    m_completed;
    m_failed;
    m_retried;
    m_rej_full;
    m_rej_down;
    h_latency;
    h_depth;
    h_batch;
    live = cfg.sessions;
    stop_all = false;
    crashed = None;
  }

(* Worker [slot] of [sh]: it prefills its share of the stripe, waits for
   its siblings, then serves batches until the queue closes. *)
let worker w sh slot =
  let sched = w.sched and workers = w.cfg.workers in
  if slot = 0 then
    sh.s_map <-
      Some (Pds.Hashmap_respct.create sh.s_rt ~slot:0 ~buckets:w.buckets);
  while Option.is_none sh.s_map do
    Sched.sleep sched 500.0
  done;
  let m = Option.get sh.s_map in
  (* prefill stripe, restart point after every insert *)
  let pf = sh.s_prefill in
  let i = ref slot in
  while !i < Array.length pf do
    let key = pf.(!i) in
    ignore (Pds.Hashmap_respct.insert m ~slot ~key ~value:(key lxor 0x5EED));
    Respct.Runtime.rp sh.s_rt ~slot 1;
    i := !i + workers
  done;
  sh.s_prefilled <- sh.s_prefilled + 1;
  while sh.s_prefilled < workers do
    (* restart point keeps the wait quiescent for checkpoints *)
    Respct.Runtime.rp sh.s_rt ~slot 3;
    Sched.sleep sched 500.0
  done;
  sh.s_active <- sh.s_active + 1;
  let wait cv mu = Respct.Runtime.cond_wait sh.s_rt ~slot cv mu in
  let batch = Array.make w.cfg.batch_max 0 in
  let continue = ref true in
  while !continue do
    let n = Admission.take sh.s_queue batch ~wait in
    if n = 0 then continue := false
    else begin
      sh.s_batches <- sh.s_batches + 1;
      Obs.Metrics.observe w.h_batch (float_of_int n);
      for j = 0 to n - 1 do
        let sid = batch.(j) in
        if sh.s_down then
          (* the crash cut this batch: the rest dies in flight *)
          w.status.(sid) <- st_dropped
        else begin
          let key = w.key.(sid) and v = w.put.(sid) in
          if v < 0 then ignore (Pds.Hashmap_respct.search m ~slot ~key)
          else if superseded w batch j n then
            sh.s_coalesced <- sh.s_coalesced + 1
          else ignore (Pds.Hashmap_respct.insert m ~slot ~key ~value:v);
          sh.s_served <- sh.s_served + 1;
          Respct.Runtime.rp sh.s_rt ~slot 2;
          w.status.(sid) <- st_done
        end;
        w.at_shard.(sid) <- Sched.now sched
      done;
      post sched w.done_ch batch n
    end
  done;
  sh.s_active <- sh.s_active - 1

(* The checkpoint coordinator of [sh]: staggering its first deadline by
   [period * (id + 1) / shards] makes the shards' pauses roll. *)
let coordinator w sh =
  let sched = w.sched and period = w.cfg.period_ns in
  while Option.is_none sh.s_map do
    Sched.sleep sched 500.0
  done;
  let deadline =
    ref
      (Sched.now sched
      +. period *. float_of_int (sh.s_id + 1) /. float_of_int w.cfg.shards)
  in
  let continue = ref true in
  while !continue do
    Sched.sleep_until sched !deadline;
    if w.stop_all || sh.s_down then continue := false
    else begin
      let before = sh.s_last_flushed in
      (* the digest epoch [e] must recover to is the logical state at
         this quiescent instant: under pipelining the walk that persists
         it is still to come *)
      Respct.Runtime.run_checkpoint sh.s_rt ~on_flushed:(fun e ->
          if not sh.s_down then begin
            sh.s_last_flushed <- e;
            if sh.s_file <> None then
              Hashtbl.replace sh.s_digests e
                (shard_digest sh ~read:sh.s_backend.Simnvm.Backend.peek)
          end);
      if not sh.s_down then begin
        sh.s_checkpoints <- sh.s_checkpoints + 1;
        (* pipeline: the seal of epoch e lands while e+1 runs, so at this
           return only the previous flush is sealed *)
        let sealed = if w.pipelined then before else sh.s_last_flushed in
        if sealed > sh.s_sealed then sh.s_sealed <- sealed
      end;
      deadline := !deadline +. period
    end
  done;
  (* release the idle flusher fibers or the run cannot end *)
  Respct.Runtime.stop sh.s_rt

(* [advance], [retry_or_fail] and [handle] act when the client hears
   from the shard, at [w.at_shard.(sid) +. net_ns]. *)
let advance w sid =
  let left = w.left.(sid) - 1 in
  w.left.(sid) <- left;
  if left = 0 then w.live <- w.live - 1
  else begin
    draw_req w sid (w.cfg.requests - left);
    let t_send =
      w.at_shard.(sid) +. net_ns +. exp_draw w.timing_rng w.cfg.think_ns
    in
    w.sent.(sid) <- t_send;
    Eheap.push w.heap (t_send +. net_ns) sid
  end

let retry_or_fail w sid =
  let retries = w.retries.(sid) in
  if retries > 0 then begin
    w.retries.(sid) <- retries - 1;
    w.status.(sid) <- st_pending;
    Obs.Metrics.incr w.m_retried;
    let t_send = w.at_shard.(sid) +. net_ns +. exp_draw w.timing_rng retry_ns in
    Eheap.push w.heap (t_send +. net_ns) sid
  end
  else begin
    Obs.Metrics.incr w.m_failed;
    advance w sid
  end

let handle w sid =
  let status = w.status.(sid) in
  if status = st_done then begin
    Obs.Metrics.incr w.m_completed;
    Obs.Metrics.observe w.h_latency
      (w.at_shard.(sid) +. net_ns -. w.sent.(sid));
    advance w sid
  end
  else if status = st_dropped then retry_or_fail w sid
  else assert false

(* Route the request to its shard's queue, or back off on a rejection. *)
let submit w sid =
  let sh = w.shard.(Router.route w.ring w.key.(sid)) in
  match Admission.offer sh.s_queue sid with
  | Ok d -> Obs.Metrics.observe w.h_depth (float_of_int d)
  | Error rej ->
      (match rej with
      | Admission.Queue_full -> Obs.Metrics.incr w.m_rej_full
      | Admission.Shard_down -> Obs.Metrics.incr w.m_rej_down);
      retry_or_fail w sid

(* The one fiber that runs every session, until none is left: it then
   closes the shards' queues. *)
let front_end w =
  let sched = w.sched and done_ch = w.done_ch in
  (* session arrivals: a Poisson-ish ramp over the arrival gap *)
  let at = ref 0.0 in
  for sid = 0 to w.cfg.sessions - 1 do
    at := !at +. exp_draw w.timing_rng w.cfg.arrival_ns;
    draw_req w sid 0;
    w.sent.(sid) <- !at;
    Eheap.push w.heap (!at +. net_ns) sid
  done;
  let handle = handle w in
  let rec loop () =
    drain sched done_ch handle;
    if w.live > 0 then
      if not (Eheap.is_empty w.heap) then begin
        let t = Eheap.top_at w.heap in
        let sid = Eheap.pop w.heap in
        Sched.sleep_until sched t;
        drain sched done_ch handle;
        w.at_shard.(sid) <- t;
        submit w sid;
        loop ()
      end
      else begin
        Simsched.Mutex.lock sched done_ch.mu;
        while done_ch.n = 0 && w.live > 0 do
          Simsched.Condvar.wait sched done_ch.cv done_ch.mu
        done;
        Simsched.Mutex.unlock sched done_ch.mu;
        loop ()
      end
  in
  loop ();
  (* all sessions finished: shut the shards down *)
  w.stop_all <- true;
  Array.iter (fun sh -> ignore (Admission.close sh.s_queue)) w.shard

(* Requests every shard but [victim] has served so far. *)
let survivors_served w ~victim =
  Array.fold_left
    (fun n sh -> if sh.s_id = victim then n else n + sh.s_served)
    0 w.shard

(* The crash trial: at [at], unless the run is over, shard [victim] dies
   and recovers in-sim while the survivors keep serving. *)
let crash w ~victim ~at =
  let sched = w.sched in
  Sched.sleep_until sched at;
  let sh = w.shard.(victim) in
  if (not w.stop_all) && not sh.s_down then begin
    let now = Sched.now sched and sealed = sh.s_sealed in
    let served = survivors_served w ~victim in
    sh.s_down <- true;
    sh.s_frozen := true;
    (* queued requests die with the shard; fail them back *)
    let leftovers = Array.of_list (Admission.close sh.s_queue) in
    Array.iter
      (fun sid ->
        w.status.(sid) <- st_dropped;
        w.at_shard.(sid) <- now)
      leftovers;
    post sched w.done_ch leftovers (Array.length leftovers);
    (* let the dying workers drain out of the serving loop *)
    while sh.s_active > 0 do
      Sched.sleep sched 2_000.0
    done;
    (* power cut on the image, then verified recovery in-sim: the
       survivors keep serving while this fiber recovers *)
    let t0 = Sched.now sched in
    let fm, _ = Option.get sh.s_file in
    let verdict = audit sh fm ~sealed in
    (* the walk reads the post-crash [persisted] view, which the
       simulator does not charge; add the modeled media scan *)
    let b = sh.s_backend in
    let scan_lines =
      (b.Simnvm.Backend.nvm_words + b.Simnvm.Backend.line_words - 1)
      / b.Simnvm.Backend.line_words
    in
    let recovery_ns =
      Sched.now sched -. t0
      +. float_of_int scan_lines
         *. Filemem.default_config.Filemem.latency.Simnvm.Latency.nvm_miss_ns
    in
    w.crashed <-
      Some
        {
          cf_shard = victim;
          cf_at = now;
          cf_sealed = sealed;
          cf_served = served;
          cf_dropped = Array.length leftovers;
          cf_recovery_ns = recovery_ns;
          cf_audit = verdict;
        }
  end

let verdict_string v = Fmt.str "%a" Respct.Recovery.pp_verdict v

(* Survivor throughput counts the requests the other shards served
   between the crash and the end of the run. *)
let crash_report w ~makespan cf =
  let v, digest_match, violations = cf.cf_audit in
  let post = survivors_served w ~victim:cf.cf_shard - cf.cf_served in
  let window = makespan -. cf.cf_at in
  {
    cr_shard = cf.cf_shard;
    cr_at_ns = cf.cf_at;
    cr_verdict = verdict_string v.Respct.Recovery.verdict;
    cr_exact = Respct.Recovery.exact_image v.Respct.Recovery.verdict;
    cr_failed_epoch = v.Respct.Recovery.vreport.Respct.Recovery.failed_epoch;
    cr_sealed_at_crash = cf.cf_sealed;
    cr_digest_match = digest_match;
    cr_violations = violations;
    cr_dropped = cf.cf_dropped;
    cr_recovery_ns = cf.cf_recovery_ns;
    cr_survivor_mrps =
      (if window > 0.0 then float_of_int post *. 1e3 /. window else 0.0);
  }

(* Final logical bindings (coherent view), for the routing oracle. *)
let final_bindings w =
  Array.to_list w.shard
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
  |> List.sort compare

(* End-of-run durability audit: power-cut every surviving file image and
   hold verified recovery to an exact image and the same verdict. *)
let survivor_check sh =
  match sh.s_file with
  | Some (fm, _) when not sh.s_down ->
      let v, _, violations = audit sh fm ~sealed:sh.s_sealed in
      Some
        {
          sc_shard = sh.s_id;
          sc_verdict = verdict_string v.Respct.Recovery.verdict;
          sc_failed_epoch =
            v.Respct.Recovery.vreport.Respct.Recovery.failed_epoch;
          sc_sealed = sh.s_sealed;
          sc_ok =
            Respct.Recovery.exact_image v.Respct.Recovery.verdict
            && violations = [];
        }
  | _ -> None

let shard_report sh =
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
  }

(* The final map is read before the audits power-cut the images, and the
   image files are dropped last. *)
let report w =
  let makespan = Sched.elapsed w.sched in
  let crash = Option.map (crash_report w ~makespan) w.crashed in
  let final = if w.cfg.collect_final then Some (final_bindings w) else None in
  let shards = Array.to_list w.shard in
  let survivors = List.filter_map survivor_check shards in
  List.iter
    (fun (fm, path) ->
      Filemem.close fm;
      try Sys.remove path with Sys_error _ -> ())
    (List.filter_map (fun sh -> sh.s_file) shards);
  let completed = Obs.Metrics.value w.m_completed in
  {
    r_cfg = w.cfg;
    r_makespan_ns = makespan;
    r_completed = completed;
    r_failed = Obs.Metrics.value w.m_failed;
    r_retried = Obs.Metrics.value w.m_retried;
    r_rejected_full = Obs.Metrics.value w.m_rej_full;
    r_rejected_down = Obs.Metrics.value w.m_rej_down;
    r_mrps =
      (if makespan > 0.0 then float_of_int completed *. 1e3 /. makespan
       else 0.0);
    r_shards = List.map shard_report shards;
    r_stall_overlap_ns = stall_overlap w.shard;
    r_crash = crash;
    r_survivors = survivors;
    r_final = final;
    r_metrics = w.metrics;
    r_span_json =
      List.map (fun sh -> (sh.s_id, Obs.Span.to_json sh.s_spans)) shards;
  }

(* Spawn order is part of the simulated behaviour: the front end, the
   crash fiber, then per shard its coordinator and workers 0..n-1. *)
let run ?crash_at_ns ?(crash_shard = 0) cfg =
  (match validate ?crash_at_ns ~crash_shard cfg with
  | Ok () -> ()
  | Error field -> invalid_arg ("Front.run: " ^ field));
  (* the sealed-epoch crash oracle needs the classic synchronous seal
     (run_checkpoint returns at the seal) *)
  let w = build ~pipelined:(crash_at_ns = None) cfg in
  let spawn name f = ignore (Sched.spawn ~name w.sched f) in
  spawn "front" (fun () -> front_end w);
  Option.iter
    (fun at ->
      let victim = crash_shard mod cfg.shards in
      spawn "svc-fault" (fun () -> crash w ~victim ~at))
    crash_at_ns;
  Array.iter
    (fun sh ->
      spawn (Printf.sprintf "s%d-ckpt" sh.s_id) (fun () -> coordinator w sh);
      for slot = 0 to cfg.workers - 1 do
        ignore
          (Respct.Runtime.spawn
             ~name:(Printf.sprintf "s%d-w%d" sh.s_id slot)
             sh.s_rt ~slot
             (fun _ctx -> worker w sh slot))
      done)
    w.shard;
  (match Sched.run w.sched with
  | Sched.Completed -> ()
  | Sched.Crash_interrupt _ -> failwith "Front.run: unexpected crash outcome");
  report w

(* ------------------------------------------------------------------ *)
(* JSON export (schema respct-service/v1). Everything in here is
   virtual-time or counter data, so same seed => byte-identical text. *)

let json_of_config cfg =
  Obs.Json.Obj
    [
      ("shards", Obs.Json.Int cfg.shards);
      ("vnodes", Obs.Json.Int vnodes);
      ("workers", Obs.Json.Int cfg.workers);
      ("sessions", Obs.Json.Int cfg.sessions);
      ("requests", Obs.Json.Int cfg.requests);
      ("keys", Obs.Json.Int cfg.keys);
      ("prefill", Obs.Json.Int cfg.prefill);
      ("theta", Obs.Json.Float cfg.theta);
      ("read_pct", Obs.Json.Int cfg.read_pct);
      ("arrival_ns", Obs.Json.Float cfg.arrival_ns);
      ("think_ns", Obs.Json.Float cfg.think_ns);
      ("net_ns", Obs.Json.Float net_ns);
      ("queue_cap", Obs.Json.Int cfg.queue_cap);
      ("batch_max", Obs.Json.Int cfg.batch_max);
      ("retries", Obs.Json.Int retries);
      ("period_ns", Obs.Json.Float cfg.period_ns);
      ("pipeline", Obs.Json.Bool pipeline);
      ("integrity", Obs.Json.Bool integrity);
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
