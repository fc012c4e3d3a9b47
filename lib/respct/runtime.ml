(* The ResPCT checkpointing runtime: epochs, restart points and the periodic
   checkpoint procedure (paper Figure 4), with the flusher-pool organisation
   of section 5 ("a pool of flusher threads flushes data to NVMM in
   parallel").

   Synchronisation differs from the paper's spin loops in mechanism, not in
   semantics: a runtime mutex [rmx] with two condition variables replaces
   the [timer]/[perThread_flag] spinning. Under [rmx], the coordinator's
   "all flags raised" observation and the subsequent flush are atomic with
   respect to every flag change, which closes the flag-lowering race that
   the spin-based pseudo-code leaves open. *)

type mode = Full | No_flush | Incll_only

type config = {
  period_ns : float;
  flusher_pool : int;
  mode : mode;
  max_threads : int;
  registry_per_slot : int;
  integrity : bool; (* checksum-sealed metadata for faulty media *)
  pipeline : bool;
      (* asynchronous epoch advance: workers enter epoch e+1 at their next
         restart point while a pool of long-lived flusher fibers walks the
         epoch-e modified set in the background; the commit seals on a
         double-buffered commit record once the walk completes. Off =
         bit-identical historical behaviour. *)
}

let default_config =
  {
    period_ns = 64.0e6;
    (* 64 ms, the paper's default checkpoint interval *)
    flusher_pool = 8;
    mode = Full;
    max_threads = 64;
    registry_per_slot = 8192;
    integrity = false;
    pipeline = false;
  }

(* Planted test mutants for the crashmatrix: each disables one safety leg
   of the pipelined protocol so the matrix can prove that leg load-bearing.
   Never set outside tests. *)
type mutant =
  | Seal_before_walk (* seal the commit at handoff, before the walk ends *)
  | No_overlap_wait (* drop the wait-for-flushed overlap barrier *)
  | Early_reclaim (* release the epoch's heap frees at handoff *)

(* A slot's volatile state. [to_flush] is its modified set, the paper's
   to_be_flushed list: the addresses it tracked this epoch, oldest first.
   A checkpoint empties it and the stack keeps its array, so tracking an
   address allocates nothing once the slot has seen an epoch as busy. *)
type slot_state = {
  mutable active : bool;
  mutable flag : bool; (* perThread_flag *)
  to_flush : Heap.Int_stack.t;
  mutable rp_cell : Incll.cell; (* 0 = not yet assigned *)
}

type stats = {
  mutable checkpoints : int;
  mutable flushed_addrs : int;
  mutable flush_ns : float;
  mutable period_sum : float;
  mutable last_checkpoint_end : float;
  mutable stall_ns : float;
      (* mutator stall: timer raise to worker release, summed over
         checkpoints (the whole checkpoint in classic mode, only the
         quiescence + handoff in pipeline mode) *)
  mutable overlap_ns : float;
      (* pipeline only: worker release to commit seal, the background
         flush window overlapped with mutator execution *)
}

(* One in-flight background flush of the pipelined coordinator. The claim
   cursor and completion counters are host-level state mutated between
   yield points, hence atomic under the cooperative scheduler. *)
type flush_job = {
  j_id : int;
  j_epoch : int; (* the epoch whose modified set is walked *)
  j_addrs : Simnvm.Addr.t array; (* the slots' modified sets, flush order *)
  mutable j_next : int; (* shared claim cursor over j_addrs *)
  j_staged : Heap.staged; (* epoch frees, released at seal *)
  j_t0 : float; (* timer raise (virtual) *)
  j_handoff : float; (* worker release (virtual) *)
  j_sealed_early : bool; (* Seal_before_walk mutant already sealed *)
  mutable j_walkers : int; (* flusher fibers still walking *)
  mutable j_done_at : float; (* max flusher clock at walk completion *)
}

type t = {
  env : Simsched.Env.t;
  cfg : config;
  layout : Layout.t;
  heap : Heap.t;
  rmx : Simsched.Mutex.t;
  regmx : Simsched.Mutex.t; (* serialises slot-count updates *)
  arrival : Simsched.Condvar.t; (* a flag was raised / a thread left *)
  finished : Simsched.Condvar.t; (* checkpoint completed *)
  slots : slot_state array;
  mutable timer : bool;
  mutable stop_requested : bool;
  stats : stats;
  mutable spans : Obs.Span.t option;
      (* phase profiling sink: checkpoint / wait / flush / epoch intervals
         on the virtual clock; observation only, charges nothing *)
  (* ---- pipelined coordinator state ---- *)
  mutable cur_epoch : int;
      (* volatile epoch, advanced at quiescence; authoritative for workers
         in pipeline mode (the persistent word lags until the seal) *)
  slot_epochs : int array;
      (* per-slot epoch views, refreshed at quiescence; what each slot's
         Pctx reads in pipeline mode (the step toward per-shard epochs) *)
  fmx : Simsched.Mutex.t; (* guards job / flush_work / flush_done *)
  flush_work : Simsched.Condvar.t; (* a job was handed off *)
  flush_done : Simsched.Condvar.t; (* the in-flight job sealed *)
  mutable job : flush_job option;
  mutable next_job_id : int;
  mutable flushers_started : bool;
  mutable mutant : mutant option;
  mutable ctxs : Pctx.t array;
      (* each slot's persistence context, built once by [make_internal]:
         every InCLL read and update, allocation and restart point takes
         one, and a fresh record and closures per call is the bulk of the
         runtime's allocation *)
}

(* Cost of the volatile bookkeeping on the hot path: checking [timer],
   appending to the to_be_flushed list. These touch DRAM-cached state. *)
let flag_check_ns = 2.0
let track_ns = 5.0

let fresh_slot () =
  {
    active = false;
    flag = false;
    to_flush = Heap.Int_stack.create ();
    rp_cell = 0;
  }

let sched t = Simsched.Env.sched t.env
let bops t = Simsched.Env.backend t.env

(* epoch_of is the identity on raw epoch words, so unpacking is
   unconditional: only integrity mode stores a sealed word. *)
let epoch_word t =
  Checksum.epoch_of (Simsched.Env.load t.env t.layout.Layout.epoch_addr)

(* The epoch workers observe. Classic mode reads the persistent word (the
   historical behaviour, cache charge included); pipeline mode reads the
   volatile counter, which runs ahead of the word during an overlapped
   flush. *)
let epoch t = if t.cfg.pipeline then t.cur_epoch else epoch_word t

(* Wait-for-flushed overlap barrier: a worker about to re-log a cell whose
   last log belongs to the epoch still being flushed must wait until that
   flush seals (the single backup word is the only copy of the cell's
   start-of-epoch value until then). Only conflicting cells pay; everyone
   else keeps running through the overlap. *)
let wait_epoch_durable t e =
  match t.job with
  | Some j when j.j_epoch = e && t.mutant <> Some No_overlap_wait ->
      let s = sched t in
      Simsched.Mutex.lock s t.fmx;
      while
        match t.job with Some j -> j.j_epoch = e | None -> false
      do
        Simsched.Condvar.wait s t.flush_done t.fmx
      done;
      Simsched.Mutex.unlock s t.fmx
  | _ -> ()

let store_epoch t e =
  Simsched.Env.store t.env t.layout.Layout.epoch_addr
    (if t.cfg.integrity then
       Checksum.seal_epoch ~epoch:e ~addr:t.layout.Layout.epoch_addr
     else e)

let add_modified t ~slot addr =
  Heap.Int_stack.push t.slots.(slot).to_flush addr;
  Simsched.Scheduler.charge (sched t) track_ns

let make_ctx t slot : Pctx.t =
  if t.cfg.pipeline then
    {
      Pctx.env = t.env;
      slot;
      (* per-slot epoch view: a volatile DRAM flag read, not a load of the
         persistent word (which lags during an overlapped flush) *)
      epoch =
        (fun () ->
          Simsched.Scheduler.charge (sched t) flag_check_ns;
          t.slot_epochs.(slot));
      add_modified = (fun addr -> add_modified t ~slot addr);
      wait_epoch_durable = (fun e -> wait_epoch_durable t e);
      integrity = t.cfg.integrity;
    }
  else
    {
      Pctx.env = t.env;
      slot;
      epoch = (fun () -> epoch_word t);
      add_modified = (fun addr -> add_modified t ~slot addr);
      wait_epoch_durable = ignore;
      integrity = t.cfg.integrity;
    }

let ctx t ~slot = t.ctxs.(slot)

(* Context whose tracked addresses are flushed immediately: used only for
   initialising a fresh image inside [create], before the simulation runs.
   The epoch is the sentinel -1, never equal to a real epoch: cells
   initialised at bootstrap would otherwise believe they had already been
   logged and tracked in epoch 0, and their epoch-0 updates would never
   reach the first checkpoint's flush list. *)
let bootstrap_ctx t : Pctx.t =
  {
    Pctx.env = t.env;
    slot = 0;
    epoch = (fun () -> -1);
    add_modified =
      (fun addr ->
        let b = bops t in
        b.Simnvm.Backend.pwb addr;
        b.Simnvm.Backend.psync ());
    wait_epoch_durable = ignore;
    integrity = t.cfg.integrity;
  }

let make_internal ?(cfg = default_config) env =
  let b = Simsched.Env.backend env in
  let layout =
    Layout.v ~integrity:cfg.integrity ~line_words:b.Simnvm.Backend.line_words
      ~nvm_words:b.Simnvm.Backend.nvm_words ~max_threads:cfg.max_threads
      ~registry_per_slot:cfg.registry_per_slot ()
  in
  let heap =
    Heap.create env ~slots:cfg.max_threads
      ~cursor_cell:layout.Layout.cursor_cell
      ~base:layout.Layout.heap_base ~limit:layout.Layout.heap_limit
  in
  let t =
    {
      env;
      cfg;
      layout;
      heap;
      rmx = Simsched.Mutex.create ~name:"respct" ();
      regmx = Simsched.Mutex.create ~name:"registry" ();
      arrival = Simsched.Condvar.create ();
      finished = Simsched.Condvar.create ();
      slots = Array.init cfg.max_threads (fun _ -> fresh_slot ());
      timer = false;
      stop_requested = false;
      stats =
        {
          checkpoints = 0;
          flushed_addrs = 0;
          flush_ns = 0.0;
          period_sum = 0.0;
          last_checkpoint_end = 0.0;
          stall_ns = 0.0;
          overlap_ns = 0.0;
        };
      spans = None;
      (* Volatile epoch views seeded from the NVMM image directly (persisted
         is a host-level read: no cache traffic, no charge, so non-pipeline
         virtual time is untouched). A fresh image reads 0, which [create]
         re-establishes anyway; [restart] picks up the failed epoch. *)
      cur_epoch =
        Checksum.epoch_of
          (b.Simnvm.Backend.persisted layout.Layout.epoch_addr);
      slot_epochs =
        Array.make cfg.max_threads
          (Checksum.epoch_of
             (b.Simnvm.Backend.persisted layout.Layout.epoch_addr));
      fmx = Simsched.Mutex.create ~name:"flush" ();
      flush_work = Simsched.Condvar.create ();
      flush_done = Simsched.Condvar.create ();
      job = None;
      next_job_id = 0;
      flushers_started = false;
      mutant = None;
      ctxs = [||];
    }
  in
  t.ctxs <- Array.init cfg.max_threads (make_ctx t);
  t

let set_spans t r = t.spans <- Some r

let emit_span t name t0 t1 =
  match t.spans with
  | Some r -> Obs.Span.emit r ~name ~t0 ~t1
  | None -> ()

(* Initialise a fresh persistent image: epoch 0 and the metadata cells are
   made persistent immediately so that a crash before the first checkpoint
   recovers the empty initial state. *)
(* The checkpoint-commit record: a copy of the epoch plus its CRC-32, on
   the same cache line as the epoch word itself, so the three stores of a
   commit persist atomically under PCSO. Recovery cross-checks the epoch
   word against it (a bit flip in either is detected, and whichever the
   CRC certifies wins). Written only in integrity mode.

   The pipelined runtime double-buffers the record: the slot for epoch
   value [e] is chosen by parity, so consecutive seals alternate and a
   torn slot write can never destroy the last certified commit — recovery
   picks the newest valid slot. The classic runtime keeps writing slot A
   every time (the historical single-record protocol). *)
let store_commit_record t e =
  let l = t.layout in
  let ea, ca =
    if t.cfg.pipeline && e land 1 = 1 then
      (l.Layout.commit2_epoch_addr, l.Layout.commit2_crc_addr)
    else (l.Layout.commit_epoch_addr, l.Layout.commit_crc_addr)
  in
  Simsched.Env.store t.env ea e;
  Simsched.Env.store t.env ca (Checksum.commit ~epoch:e ~addr:ea)

let create ?cfg env =
  let t = make_internal ?cfg env in
  let b = bops t in
  let bctx = bootstrap_ctx t in
  if t.cfg.integrity then store_commit_record t 0;
  store_epoch t 0;
  b.Simnvm.Backend.pwb t.layout.Layout.epoch_addr;
  Heap.init_cursor bctx t.heap;
  Incll.init bctx t.layout.Layout.slots_cell 0;
  for slot = 0 to t.cfg.max_threads - 1 do
    Incll.init bctx
      (Layout.reglen_cell t.layout ~line_words:b.Simnvm.Backend.line_words
         slot)
      0
  done;
  b.Simnvm.Backend.psync ();
  t

(* Attach a runtime to a memory image that just went through recovery.
   [reflush] seeds the to_be_flushed list with the cells the recovery rolled
   back: they carry the current (failed) epoch number in their epoch_id, so
   their next update skips logging and would otherwise never be re-flushed
   (see Recovery). They are assigned to slot 0, last listed first: the
   order in which the first checkpoint has always flushed them. *)
let restart ?cfg ?(reflush = []) env =
  let t = make_internal ?cfg env in
  List.iter (Heap.Int_stack.push t.slots.(0).to_flush) (List.rev reflush);
  t

(* ------------------------------------------------------------------ *)
(* InCLL registry: recovery enumerates live cells through it. Each slot
   appends to its own segment, so no cross-thread synchronisation is
   needed on the allocation path. *)

let line_words t = Simsched.Env.line_words t.env

let register_range t ~slot ~base ~count =
  let c = ctx t ~slot in
  let lencell = Layout.reglen_cell t.layout ~line_words:(line_words t) slot in
  let len = Incll.read c lencell in
  if len >= t.layout.Layout.registry_per_slot then
    failwith
      (Printf.sprintf "Runtime: InCLL registry full (slot %d, cap %d)" slot
         t.layout.Layout.registry_per_slot);
  let entry = Layout.registry_segment t.layout slot + len in
  let encoded = Layout.encode_entry ~base ~count in
  Simsched.Env.store t.env entry encoded;
  add_modified t ~slot entry;
  if t.cfg.integrity then begin
    (* Registry summary: bind the entry word to its address so recovery
       can refuse a corrupted entry instead of scanning wild memory. The
       summary lives in its own region; a crash before the checkpoint
       flushes both is harmless because the rolled-back registry length
       hides the entry from the scan. *)
    let sum = Layout.regsum_addr t.layout ~entry in
    Simsched.Env.store t.env sum (Checksum.regsum ~entry:encoded ~addr:entry);
    add_modified t ~slot sum
  end;
  Incll.update c lencell (len + 1)

let register_cell t ~slot cell = register_range t ~slot ~base:cell ~count:1

(* ------------------------------------------------------------------ *)
(* Thread registration *)

let register t ~slot =
  if slot < 0 || slot >= t.cfg.max_threads then
    invalid_arg "Runtime.register: slot out of range";
  let st = t.slots.(slot) in
  if st.active then invalid_arg "Runtime.register: slot already active";
  Simsched.Mutex.with_lock (sched t) t.rmx (fun () ->
      st.active <- true;
      st.flag <- false);
  (* Assign the persistent RP_id cell: reuse the one recorded in the slot
     table by a pre-crash run, otherwise allocate and publish it. *)
  let table_addr = t.layout.Layout.slot_table_base + slot in
  let recorded = Simsched.Env.load t.env table_addr in
  let c = ctx t ~slot in
  if recorded <> 0 then st.rp_cell <- recorded
  else begin
    let cell, fresh = Heap.alloc_incll_block c t.heap in
    Incll.init c cell 0;
    if fresh then register_cell t ~slot cell;
    Simsched.Env.store t.env table_addr cell;
    add_modified t ~slot table_addr;
    Simsched.Mutex.with_lock (sched t) t.regmx (fun () ->
        let count = Incll.read c t.layout.Layout.slots_cell in
        if slot + 1 > count then
          Incll.update c t.layout.Layout.slots_cell (slot + 1));
    st.rp_cell <- cell
  end

let deregister t ~slot =
  let st = t.slots.(slot) in
  Simsched.Mutex.with_lock (sched t) t.rmx (fun () ->
      st.active <- false;
      st.flag <- false;
      (* A departing thread may be the last one a checkpoint waits for. *)
      Simsched.Condvar.signal (sched t) t.arrival)

let spawn ?name t ~slot f =
  Simsched.Scheduler.spawn ?name (sched t) (fun () ->
      register t ~slot;
      match f (ctx t ~slot) with
      | () -> deregister t ~slot
      | exception e ->
          if e <> Simsched.Scheduler.Crashed then deregister t ~slot;
          raise e)

(* ------------------------------------------------------------------ *)
(* InCLL allocation *)

let alloc_incll t ~slot v =
  let c = ctx t ~slot in
  let cell, fresh = Heap.alloc_incll_block c t.heap in
  Incll.init c cell v;
  if fresh then register_cell t ~slot cell;
  cell

let alloc_incll_array t ~slot n ~init:v =
  let c = ctx t ~slot in
  let base, fresh = Heap.alloc_incll_array_block c t.heap n in
  for i = 0 to n - 1 do
    Incll.init c (Heap.cell_at t.env base i) v
  done;
  if fresh then begin
    (* One range-encoded registry entry per chunk of the array. Chunks
       start on line boundaries so the packed-cell rule (Heap.cell_at)
       decodes identically from each chunk base. *)
    let cpl = max 1 (line_words t / Incll.words) in
    let per = Layout.max_entry_count / cpl * cpl in
    let rec cover i =
      if i < n then begin
        let count = min per (n - i) in
        register_range t ~slot ~base:(Heap.cell_at t.env base i) ~count;
        cover (i + count)
      end
    in
    cover 0
  end;
  base

let alloc_raw ?line_start t ~slot ~words =
  Heap.alloc ?line_start (ctx t ~slot) t.heap ~words

let alloc_raw_block ?align_line ?line_start t ~slot ~words =
  Heap.alloc_block ?align_line ?line_start (ctx t ~slot) t.heap ~words

(* Initialise an InCLL cell embedded in a block obtained from
   [alloc_raw_block]: registered for recovery only when the block is fresh
   (a recycled block's cells are already in the registry). *)
let init_incll t ~slot ~fresh cell v =
  Incll.init (ctx t ~slot) cell v;
  if fresh then register_cell t ~slot cell

let free t ~slot addr ~words = Heap.free (ctx t ~slot) t.heap addr ~words

let update t ~slot cell v = Incll.update (ctx t ~slot) cell v
let read t ~slot cell = Incll.read (ctx t ~slot) cell

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

let all_flags_raised t =
  Array.for_all (fun st -> (not st.active) || st.flag) t.slots

(* A checkpoint flushes the modified sets slot [max_threads - 1] first,
   each slot's addresses oldest first. *)
let modified_count t =
  Array.fold_left
    (fun n st -> n + Heap.Int_stack.length st.to_flush)
    0 t.slots

let clear_modified t =
  Array.iter (fun st -> Heap.Int_stack.clear st.to_flush) t.slots

(* Flush the modified sets in place, in flush order, modelling the
   flusher-thread pool ([Env.pool_makespan]: the pwb costs are added up
   off the coordinator's clock, divided by the pool width, and charged as
   the parallel flush's makespan). The walk cannot yield, since the
   backend's [pwb] does not poll: no worker tracks an address between the
   first pwb and the caller's [clear_modified], so the quiescent point
   still divides the epochs and an address tracked after it belongs to
   the next checkpoint. *)
let flush_with_pool t =
  let b = bops t in
  let t0 = Simsched.Scheduler.now (sched t) in
  let makespan =
    Simsched.Env.pool_makespan t.env ~pool:t.cfg.flusher_pool (fun () ->
        for slot = Array.length t.slots - 1 downto 0 do
          let s = t.slots.(slot).to_flush in
          for i = 0 to Heap.Int_stack.length s - 1 do
            b.Simnvm.Backend.pwb (Heap.Int_stack.get s i)
          done
        done;
        b.Simnvm.Backend.psync ())
  in
  t.stats.flush_ns <- t.stats.flush_ns +. makespan;
  emit_span t "checkpoint.flush" t0 (Simsched.Scheduler.now (sched t))

(* Seal the checkpoint that advanced into epoch value [v]: commit record
   slot (integrity mode), epoch word, pwb, psync. All the stores share
   line 0, so one pwb persists them line-atomically under PCSO. *)
let seal_commit t v =
  if t.cfg.integrity then store_commit_record t v;
  store_epoch t v;
  Simsched.Env.pwb t.env t.layout.Layout.epoch_addr;
  Simsched.Env.psync t.env

(* Checkpoint-completion bookkeeping, shared by the classic body (runs on
   the coordinator clock) and the pipelined seal (runs on the sealing
   flusher's clock). *)
let finish_checkpoint_stats t ~count ~now =
  (* The epoch span runs from the previous checkpoint's completion to this
     one's (from time 0 for the first), the interval during which the
     just-flushed modifications accumulated. *)
  emit_span t "epoch" t.stats.last_checkpoint_end now;
  t.stats.checkpoints <- t.stats.checkpoints + 1;
  t.stats.flushed_addrs <- t.stats.flushed_addrs + count;
  if t.stats.checkpoints > 1 then
    t.stats.period_sum <-
      t.stats.period_sum +. (now -. t.stats.last_checkpoint_end);
  t.stats.last_checkpoint_end <- now

(* The pipelined handoff's one copy of the modified sets, in flush order;
   the sets are emptied. *)
let collect_modified t =
  let addrs = Array.make (modified_count t) 0 in
  let k = ref 0 in
  for slot = Array.length t.slots - 1 downto 0 do
    let s = t.slots.(slot).to_flush in
    Heap.Int_stack.blit s addrs !k;
    k := !k + Heap.Int_stack.length s;
    Heap.Int_stack.clear s
  done;
  addrs

(* ------------------------------------------------------------------ *)
(* Background flusher pool (pipeline mode). The fibers are long-lived:
   spawned once on the scheduler, they sleep on [flush_work] between
   checkpoints, claim chunks of the handed-off modified set from a shared
   cursor, and issue the pwbs on their own virtual clocks — so the walk
   genuinely overlaps mutator execution under the smallest-clock dispatch.
   The last fiber to finish the walk performs the seal. *)

let walk_chunk = 32 (* addresses claimed per host-atomic grab *)

let flusher_body t () =
  let s = sched t in
  let last = ref (-1) in
  let running = ref true in
  while !running do
    Simsched.Mutex.lock s t.fmx;
    while
      (match t.job with Some j -> j.j_id = !last | None -> true)
      && not t.stop_requested
    do
      Simsched.Condvar.wait s t.flush_work t.fmx
    done;
    match t.job with
    | Some j when j.j_id <> !last ->
        Simsched.Mutex.unlock s t.fmx;
        last := j.j_id;
        let busy0 = Simsched.Scheduler.now s in
        let len = Array.length j.j_addrs in
        let walking = ref true in
        while !walking do
          let lo = j.j_next in
          if lo >= len then walking := false
          else begin
            (* Host-level claim between yield points, hence atomic. *)
            let hi = min len (lo + walk_chunk) in
            j.j_next <- hi;
            for k = lo to hi - 1 do
              Simsched.Env.pwb t.env j.j_addrs.(k);
              Simsched.Scheduler.poll s
            done
          end
        done;
        (* Flush time is attributed to the flusher fibers, not folded into
           the coordinator's period accounting. *)
        emit_span t "checkpoint.flush" busy0 (Simsched.Scheduler.now s);
        Simsched.Mutex.lock s t.fmx;
        j.j_done_at <- Float.max j.j_done_at (Simsched.Scheduler.now s);
        j.j_walkers <- j.j_walkers - 1;
        let last_walker = j.j_walkers = 0 in
        Simsched.Mutex.unlock s t.fmx;
        if last_walker then begin
          (* The seal happens-after every walker's completion. *)
          Simsched.Scheduler.advance_to s j.j_done_at;
          let walk_end = Simsched.Scheduler.now s in
          t.stats.flush_ns <- t.stats.flush_ns +. (walk_end -. j.j_handoff);
          Simsched.Env.psync t.env;
          if not j.j_sealed_early then seal_commit t (j.j_epoch + 1);
          if t.mutant <> Some Early_reclaim then Heap.release t.heap j.j_staged;
          let now = Simsched.Scheduler.now s in
          t.stats.overlap_ns <- t.stats.overlap_ns +. (now -. j.j_handoff);
          emit_span t "checkpoint.overlap" j.j_handoff now;
          emit_span t "checkpoint" j.j_t0 now;
          finish_checkpoint_stats t ~count:(Array.length j.j_addrs) ~now;
          Simsched.Mutex.lock s t.fmx;
          t.job <- None;
          Simsched.Condvar.broadcast s t.flush_done;
          Simsched.Mutex.unlock s t.fmx
        end
    | _ ->
        (* stop requested and no fresh job *)
        Simsched.Mutex.unlock s t.fmx;
        running := false
  done

(* The pool is spawned once, lazily: [start] spawns it for a pipelined
   runtime, and a [run_checkpoint] driven by hand (the service's
   coordinator, tests) spawns it on first use — still long-lived fibers,
   never per-checkpoint threads. *)
let ensure_flushers t =
  if not t.flushers_started then begin
    t.flushers_started <- true;
    for i = 0 to max 1 t.cfg.flusher_pool - 1 do
      ignore
        (Simsched.Scheduler.spawn
           ~name:(Printf.sprintf "respct-flusher-%d" i)
           (sched t) (flusher_body t))
    done
  end

(* The body of the checkpoint procedure, to be called with [rmx] held and
   all flags raised: flush, advance the epoch, release the epoch's frees.
   [on_flushed] runs between the flush and the epoch increment, while every
   application thread is still quiescent: at that instant the persistent
   image is exactly the state at the start of the next epoch, which test
   oracles snapshot to verify recovery. *)
let checkpoint_body ?(on_flushed = fun (_ : int) -> ()) t =
  let count = modified_count t in
  (match t.cfg.mode with
  | Full -> flush_with_pool t
  | No_flush | Incll_only -> ());
  clear_modified t;
  let e = epoch_word t in
  on_flushed (e + 1);
  seal_commit t (e + 1);
  t.cur_epoch <- e + 1;
  Array.fill t.slot_epochs 0 (Array.length t.slot_epochs) (e + 1);
  Heap.advance_epoch t.heap;
  let now = Simsched.Scheduler.now (sched t) in
  finish_checkpoint_stats t ~count ~now

(* Pipelined quiescence body, with [rmx] held and all flags raised: gather
   the modified set, snapshot the oracle state, stage the epoch's heap
   frees, hand the walk to the flusher pool, advance the volatile epoch
   views and release the workers. The persistent seal happens later, on
   the last flusher, once the walk completes (seal-at-walk-completion). *)
let checkpoint_handoff ?(on_flushed = fun (_ : int) -> ()) t ~t0 =
  let s = sched t in
  let addrs = collect_modified t in
  let e = t.cur_epoch in
  (* Quiescent instant: the model state here equals end-of-epoch-[e],
     exactly what recovery restores for a crash in epoch e+1 — the same
     oracle contract as the classic on_flushed. *)
  on_flushed (e + 1);
  let staged = Heap.collect_pending t.heap in
  if t.mutant = Some Early_reclaim then Heap.release t.heap staged;
  let sealed_early = t.mutant = Some Seal_before_walk in
  if sealed_early then seal_commit t (e + 1);
  let now = Simsched.Scheduler.now s in
  let job =
    {
      j_id = t.next_job_id;
      j_epoch = e;
      j_addrs = addrs;
      j_next = 0;
      j_staged = staged;
      j_t0 = t0;
      j_handoff = now;
      j_sealed_early = sealed_early;
      j_walkers = max 1 t.cfg.flusher_pool;
      j_done_at = now;
    }
  in
  t.next_job_id <- t.next_job_id + 1;
  t.cur_epoch <- e + 1;
  Array.fill t.slot_epochs 0 (Array.length t.slot_epochs) (e + 1);
  Simsched.Mutex.lock s t.fmx;
  t.job <- Some job;
  Simsched.Condvar.broadcast s t.flush_work;
  Simsched.Mutex.unlock s t.fmx

(* One full checkpoint: raise the timer, wait for every active thread to
   reach a restart point, then either flush-and-seal synchronously (classic
   mode) or hand the walk to the flusher pool and release the workers
   immediately (pipeline mode). Runs on the coordinator thread (or directly
   on a test thread). Pipeline applies to mode [Full] only: No_flush and
   eADR-style runs keep the classic ordering even with [pipeline = true]. *)
let run_checkpoint ?on_flushed t =
  let s = sched t in
  let pipelined = t.cfg.pipeline && t.cfg.mode = Full in
  if pipelined then begin
    ensure_flushers t;
    (* Backpressure: at most one overlapped flush in flight — the next
       quiescence waits out the previous seal before stalling anyone. *)
    Simsched.Mutex.lock s t.fmx;
    while t.job <> None do
      Simsched.Condvar.wait s t.flush_done t.fmx
    done;
    Simsched.Mutex.unlock s t.fmx
  end;
  let t0 = Simsched.Scheduler.now s in
  Simsched.Mutex.lock s t.rmx;
  t.timer <- true;
  while not (all_flags_raised t) do
    Simsched.Condvar.wait s t.arrival t.rmx
  done;
  emit_span t "checkpoint.wait" t0 (Simsched.Scheduler.now s);
  if pipelined then checkpoint_handoff ?on_flushed t ~t0
  else checkpoint_body ?on_flushed t;
  t.timer <- false;
  Simsched.Condvar.broadcast s t.finished;
  Simsched.Mutex.unlock s t.rmx;
  let now = Simsched.Scheduler.now s in
  t.stats.stall_ns <- t.stats.stall_ns +. (now -. t0);
  emit_span t "checkpoint.stall" t0 now;
  if not pipelined then emit_span t "checkpoint" t0 now

let coordinator ?on_flushed t () =
  let s = sched t in
  let rec loop deadline =
    Simsched.Scheduler.sleep_until s deadline;
    if not t.stop_requested then begin
      run_checkpoint ?on_flushed t;
      let next =
        Float.max (deadline +. t.cfg.period_ns) (Simsched.Scheduler.now s)
      in
      loop next
    end
  in
  loop (Simsched.Scheduler.now s +. t.cfg.period_ns)

let start ?on_flushed t =
  match t.cfg.mode with
  | Incll_only -> ()
  | Full | No_flush ->
      if t.cfg.pipeline && t.cfg.mode = Full then ensure_flushers t;
      ignore (Simsched.Scheduler.spawn ~name:"respct-coordinator" (sched t)
                (coordinator ?on_flushed t))

let stop t =
  t.stop_requested <- true;
  (* Wake idle flusher fibers so they can exit; only meaningful (and only
     legal) from inside the simulation. *)
  if
    t.flushers_started
    && Simsched.Scheduler.current_tid_opt (sched t) >= 0
  then begin
    let s = sched t in
    Simsched.Mutex.lock s t.fmx;
    Simsched.Condvar.broadcast s t.flush_work;
    Simsched.Mutex.unlock s t.fmx
  end

let set_mutant t m = t.mutant <- m

(* ------------------------------------------------------------------ *)
(* Restart points (paper section 3.3) *)

let rp t ~slot id =
  let st = t.slots.(slot) in
  (let bus = Simsched.Scheduler.trace_bus (sched t) in
   if Simnvm.Event.active bus then
     Simnvm.Event.emit bus
       (Simnvm.Event.Restart_point
          { tid = Simsched.Scheduler.current_tid_opt (sched t); id }));
  (* Deferred RP_id under an overlapped flush: the rp cell is updated at
     every restart point, so its previous log always belongs to the epoch
     being flushed and re-logging it would park every worker on the
     wait-for-flushed barrier at its first rp of the new epoch. Skipping
     the persistent update until the seal is safe: a crash before the seal
     rolls the world back to the previous quiescence, where the cell's
     backup holds the matching rp id; a crash after the seal (update still
     deferred) restores end-of-epoch state, and the cell's un-relogged
     record is exactly the rp id at that quiescence. Quiescence itself
     never overlaps a flush (backpressure), so the id written there is
     never deferred. *)
  let deferred =
    t.cfg.pipeline
    &&
    match t.job with
    | Some j ->
        Checksum.epoch_of
          (Simsched.Env.load t.env (Incll.epoch_id st.rp_cell))
        = j.j_epoch
    | None -> false
  in
  if not deferred then Incll.update (ctx t ~slot) st.rp_cell id;
  let s = sched t in
  Simsched.Scheduler.charge s flag_check_ns;
  if t.timer then begin
    Simsched.Mutex.lock s t.rmx;
    if t.timer then begin
      st.flag <- true;
      Simsched.Condvar.signal s t.arrival;
      while t.timer do
        Simsched.Condvar.wait s t.finished t.rmx
      done;
      st.flag <- false
    end;
    Simsched.Mutex.unlock s t.rmx
  end

(* Fast path without the runtime mutex, like the paper's plain flag store:
   the flag is raised before [timer] is checked, so either the coordinator's
   scan (under rmx) already sees it, or we observe the raised timer and
   deliver the signal under rmx. Cooperative execution makes the two
   volatile accesses sequentially consistent. *)
let checkpoint_allow t ~slot =
  let s = sched t in
  t.slots.(slot).flag <- true;
  Simsched.Scheduler.charge s flag_check_ns;
  if t.timer then
    Simsched.Mutex.with_lock s t.rmx (fun () ->
        Simsched.Condvar.signal s t.arrival)

(* checkpoint_prevent (paper lines 32-39). [app_mutex] is the application
   mutex re-acquired by the cond_wait that just returned; it must be
   released while waiting for an ongoing checkpoint, and rmx must never be
   held while blocking on it. *)
let checkpoint_prevent t ~slot app_mutex =
  let s = sched t in
  let st = t.slots.(slot) in
  st.flag <- false;
  Simsched.Scheduler.charge s flag_check_ns;
  (* Fast path: no pending checkpoint, the flag store suffices. If the
     coordinator raced us and already observed the raised flag, [timer] is
     true here and the slow path below blocks on rmx until the checkpoint
     completes, preserving quiescence. *)
  if t.timer then begin
    Simsched.Mutex.lock s t.rmx;
    st.flag <- false;
    if t.timer then begin
      st.flag <- true;
      Simsched.Condvar.signal s t.arrival;
      Simsched.Mutex.unlock s app_mutex;
      while t.timer do
        Simsched.Condvar.wait s t.finished t.rmx
      done;
      Simsched.Mutex.unlock s t.rmx;
      Simsched.Mutex.lock s app_mutex;
      Simsched.Mutex.with_lock s t.rmx (fun () -> st.flag <- false)
    end
    else Simsched.Mutex.unlock s t.rmx
  end

(* Simplified variant for blocking calls outside critical sections. *)
let checkpoint_prevent_nolock t ~slot =
  let s = sched t in
  let st = t.slots.(slot) in
  st.flag <- false;
  Simsched.Scheduler.charge s flag_check_ns;
  if t.timer then begin
    Simsched.Mutex.lock s t.rmx;
    st.flag <- false;
    if t.timer then begin
      st.flag <- true;
      Simsched.Condvar.signal s t.arrival;
      while t.timer do
        Simsched.Condvar.wait s t.finished t.rmx
      done;
      st.flag <- false
    end;
    Simsched.Mutex.unlock s t.rmx
  end

(* Figure 7: condition-variable wait wrapped in allow/prevent. *)
let cond_wait t ~slot cv app_mutex =
  checkpoint_allow t ~slot;
  Simsched.Condvar.wait (sched t) cv app_mutex;
  checkpoint_prevent t ~slot app_mutex

(* ------------------------------------------------------------------ *)
(* Introspection *)

let stats t = t.stats
let heap t = t.heap
let layout t = t.layout
let env t = t.env

let mean_effective_period t =
  if t.stats.checkpoints <= 1 then nan
  else t.stats.period_sum /. float_of_int (t.stats.checkpoints - 1)
