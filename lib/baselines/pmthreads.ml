let page_words = 512
let dirty_check_ns = 5.0 (* store to an already-writable page *)
let fault_ns = 2_000.0 (* write-protection fault on first touch *)

(* Per-dirty-page mprotect syscall + TLB shootdown when re-arming the
   tracking at the epoch boundary: the dominant cost when the persistent
   state is large, per the paper's analysis of PMThreads. *)
let reprotect_page_ns = 1_500.0
let copy_line_ns = 160.0 (* DRAM read + NVMM streaming write, per line *)

type t = {
  env : Simsched.Env.t;
  gate : Epoch_gate.t;
  dirty : (int, unit) Hashtbl.t;
  ever_touched : (int, unit) Hashtbl.t; (* high-water mark of the heap *)
  flusher_pool : int;
  line_words : int;
  mutable pages_copied : int;
}

let epoch_body t () =
  let pages = Hashtbl.length t.dirty in
  let lines_per_page = page_words / t.line_words in
  let copy =
    float_of_int (pages * lines_per_page)
    *. copy_line_ns
    /. float_of_int (max 1 t.flusher_pool)
  in
  (* Per-dirty-page mprotect + shootdown to re-arm the tracking. *)
  let reprotect = float_of_int pages *. reprotect_page_ns in
  Simsched.Scheduler.charge (Simsched.Env.sched t.env) (copy +. reprotect);
  t.pages_copied <- t.pages_copied + pages;
  Hashtbl.reset t.dirty

let create env ~max_threads ~period_ns ~flusher_pool =
  let sched = Simsched.Env.sched env in
  let t =
    {
      env;
      gate = Epoch_gate.create sched ~max_threads;
      dirty = Hashtbl.create 1024;
      ever_touched = Hashtbl.create 1024;
      flusher_pool;
      line_words = Simsched.Env.line_words env;
      pages_copied = 0;
    }
  in
  Epoch_gate.start t.gate ~period_ns (epoch_body t);
  t

let tracked_store t addr v =
  let page = addr / page_words in
  if Hashtbl.mem t.dirty page then
    Simsched.Scheduler.charge (Simsched.Env.sched t.env) dirty_check_ns
  else begin
    Hashtbl.replace t.dirty page ();
    Hashtbl.replace t.ever_touched page ();
    Simsched.Scheduler.charge (Simsched.Env.sched t.env) fault_ns
  end;
  Simsched.Env.store t.env addr v

(* The shadow lives in DRAM: structures allocate from the DRAM region. *)
let mem t bump =
  {
    Pds.Mem_iface.load = (fun ~slot:_ addr -> Simsched.Env.load t.env addr);
    store = (fun ~slot:_ addr v -> tracked_store t addr v);
    alloc = (fun ~slot:_ ~words -> Pds.Bump.alloc bump ~words);
    free = (fun ~slot:_ addr ~words -> Pds.Bump.free bump addr ~words);
  }

let system t : Pds.Ops.system =
  {
    Pds.Ops.sys_register = (fun ~slot -> Epoch_gate.register t.gate ~slot);
    sys_deregister = (fun ~slot -> Epoch_gate.deregister t.gate ~slot);
    sys_allow = (fun ~slot -> Epoch_gate.allow t.gate ~slot);
    sys_prevent = (fun ~slot -> Epoch_gate.prevent t.gate ~slot);
    sys_stop = (fun () -> Epoch_gate.stop t.gate);
  }

let dram_bump t =
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem t.env) in
  let base = mcfg.Simnvm.Memsys.nvm_words in
  Pds.Bump.create t.env ~base ~limit:(base + mcfg.Simnvm.Memsys.dram_words)

let make_map env ~max_threads ~period_ns ~flusher_pool ~buckets =
  let t = create env ~max_threads ~period_ns ~flusher_pool in
  let m = Pds.Hashmap_transient.create env (mem t (dram_bump t)) ~buckets in
  let ops =
    {
      (Pds.Hashmap_transient.ops m) with
      Pds.Ops.map_rp =
        (fun ~slot ~id:_ -> Epoch_gate.pause_point t.gate ~slot);
    }
  in
  (ops, system t)

let make_queue env ~max_threads ~period_ns ~flusher_pool =
  let t = create env ~max_threads ~period_ns ~flusher_pool in
  let q = Pds.Queue_transient.create env (mem t (dram_bump t)) in
  let ops =
    {
      (Pds.Queue_transient.ops q) with
      Pds.Ops.queue_rp =
        (fun ~slot ~id:_ -> Epoch_gate.pause_point t.gate ~slot);
    }
  in
  (ops, system t)
