let payload_words = 4 (* key/value/epoch-tag/valid *)

type t = {
  env : Simsched.Env.t;
  gate : Epoch_gate.t;
  alloc_lock : Simsched.Mutex.t; (* the shared payload allocator *)
  nvm_bump : Pds.Bump.t;
  to_flush : int list ref array; (* per-slot payloads written this epoch *)
  retired : (int * int) list ref array; (* per-slot, reclaim next epoch *)
  flusher_pool : int;
  mutable flushed_payloads : int;
}

let epoch_body t () =
  let m = Simsched.Env.mem t.env in
  ignore
    (Simsched.Env.pool_makespan t.env ~pool:t.flusher_pool (fun () ->
         Array.iter
           (fun l ->
             List.iter
               (fun p ->
                 Simnvm.Memsys.pwb m p;
                 t.flushed_payloads <- t.flushed_payloads + 1)
               !l;
             l := [])
           t.to_flush;
         Simnvm.Memsys.psync m));
  (* Epoch-based reclamation: payloads retired during the epoch that just
     persisted are now reusable. *)
  Array.iter
    (fun l ->
      List.iter (fun (addr, words) -> Pds.Bump.free t.nvm_bump addr ~words) !l;
      l := [])
    t.retired

let create env ~max_threads ~period_ns ~flusher_pool =
  let sched = Simsched.Env.sched env in
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem env) in
  let lw = mcfg.Simnvm.Memsys.line_words in
  let t =
    {
      env;
      gate = Epoch_gate.create sched ~max_threads;
      alloc_lock = Simsched.Mutex.create ~name:"montage-alloc" ();
      nvm_bump =
        Pds.Bump.create env ~base:lw
          ~limit:(mcfg.Simnvm.Memsys.nvm_words - lw);
      to_flush = Array.init max_threads (fun _ -> ref []);
      retired = Array.init max_threads (fun _ -> ref []);
      flusher_pool;
      flushed_payloads = 0;
    }
  in
  Epoch_gate.start t.gate ~period_ns (epoch_body t);
  t

(* Allocate and fill a payload: the shared allocator is a contention point
   by design. *)
let new_payload t ~slot ~key ~value =
  let sched = Simsched.Env.sched t.env in
  let p =
    Simsched.Mutex.with_lock sched t.alloc_lock (fun () ->
        Pds.Bump.alloc t.nvm_bump ~words:payload_words)
  in
  Simsched.Env.store t.env p key;
  Simsched.Env.store t.env (p + 1) value;
  Simsched.Env.store t.env (p + 2) (Epoch_gate.epochs t.gate);
  Simsched.Env.store t.env (p + 3) 1;
  let l = t.to_flush.(slot) in
  l := p :: !l;
  p

let retire t ~slot p =
  let l = t.retired.(slot) in
  l := (p, payload_words) :: !l

let dram_bump t =
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem t.env) in
  let base = mcfg.Simnvm.Memsys.nvm_words in
  Pds.Bump.create t.env ~base ~limit:(base + mcfg.Simnvm.Memsys.dram_words)

let system t : Pds.Ops.system =
  {
    Pds.Ops.sys_register = (fun ~slot -> Epoch_gate.register t.gate ~slot);
    sys_deregister = (fun ~slot -> Epoch_gate.deregister t.gate ~slot);
    sys_allow = (fun ~slot -> Epoch_gate.allow t.gate ~slot);
    sys_prevent = (fun ~slot -> Epoch_gate.prevent t.gate ~slot);
    sys_stop = (fun () -> Epoch_gate.stop t.gate);
  }

(* Map: DRAM index from keys to payload addresses; reads go through to the
   payload in NVMM. *)
let make_map env ~max_threads ~period_ns ~flusher_pool ~buckets =
  let t = create env ~max_threads ~period_ns ~flusher_pool in
  let index =
    Pds.Hashmap_transient.create env
      (Pds.Mem_iface.of_env_bump env (dram_bump t))
      ~buckets
  in
  let insert ~slot ~key ~value =
    let p = new_payload t ~slot ~key ~value in
    Pds.Hashmap_transient.insert index ~slot ~key ~value:p
  in
  let search ~slot ~key =
    match Pds.Hashmap_transient.search index ~slot ~key with
    | None -> None
    | Some p -> Some (Simsched.Env.load t.env (p + 1))
  in
  let remove ~slot ~key =
    match Pds.Hashmap_transient.search index ~slot ~key with
    | None -> false
    | Some p ->
        retire t ~slot p;
        (* anti-node payload records the deletion for recovery *)
        ignore (new_payload t ~slot ~key ~value:0);
        Pds.Hashmap_transient.remove index ~slot ~key
  in
  ( {
      Pds.Ops.insert;
      remove;
      search;
      map_rp = (fun ~slot ~id:_ -> Epoch_gate.pause_point t.gate ~slot);
    },
    system t )

(* Queue: DRAM sentinel list of payload pointers, a single lock, and the
   persistent global sequence number updated inside the critical section —
   the recovery metadata that limits Montage's queue performance (paper
   section 5.1). The payload is allocated before entering the section, as
   Montage does. *)
let make_queue env ~max_threads ~period_ns ~flusher_pool =
  let t = create env ~max_threads ~period_ns ~flusher_pool in
  let sched = Simsched.Env.sched t.env in
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem t.env) in
  (* the global persistent sequence number lives in its own line *)
  let seq_addr = mcfg.Simnvm.Memsys.nvm_words - mcfg.Simnvm.Memsys.line_words in
  let bump = dram_bump t in
  let lock = Simsched.Mutex.create ~name:"montage-queue" () in
  (* DRAM node: [payload; next]; head/tail pointers in DRAM too *)
  let ptrs = Pds.Bump.alloc bump ~words:2 in
  let sentinel = Pds.Bump.alloc bump ~words:2 in
  Simsched.Env.store t.env (sentinel + 1) 0;
  Simsched.Env.store t.env ptrs sentinel;
  Simsched.Env.store t.env (ptrs + 1) sentinel;
  let enqueue ~slot v =
    let p = new_payload t ~slot ~key:0 ~value:v in
    let node = Pds.Bump.alloc bump ~words:2 in
    Simsched.Mutex.with_lock sched lock (fun () ->
        (* seqno persisted with the element: NVMM write in the section *)
        let seq = Simsched.Env.faa t.env seq_addr 1 in
        Simsched.Env.store t.env p seq;
        Simsched.Env.store t.env node p;
        Simsched.Env.store t.env (node + 1) 0;
        let tail = Simsched.Env.load t.env (ptrs + 1) in
        Simsched.Env.store t.env (tail + 1) node;
        Simsched.Env.store t.env (ptrs + 1) node)
  in
  let dequeue ~slot =
    Simsched.Mutex.with_lock sched lock (fun () ->
        let s = Simsched.Env.load t.env ptrs in
        let first = Simsched.Env.load t.env (s + 1) in
        if first = 0 then None
        else begin
          let p = Simsched.Env.load t.env first in
          let v = Simsched.Env.load t.env (p + 1) in
          Simsched.Env.store t.env ptrs first;
          Pds.Bump.free bump s ~words:2;
          retire t ~slot p;
          Some v
        end)
  in
  ( {
      Pds.Ops.enqueue;
      dequeue;
      queue_rp = (fun ~slot ~id:_ -> Epoch_gate.pause_point t.gate ~slot);
    },
    system t )
