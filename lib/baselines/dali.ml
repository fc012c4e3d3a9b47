let record_words = 3
let tombstone = min_int

type t = {
  env : Simsched.Env.t;
  gate : Epoch_gate.t;
  buckets : int;
  heads : int; (* NVMM bucket array *)
  locks : Simsched.Mutex.t array;
  nvm_bump : Pds.Bump.t;
  dirty : (int, unit) Hashtbl.t; (* dirty buckets this epoch *)
  flusher_pool : int;
  mutable compacted : int;
}

let bucket t key = (key land max_int) mod t.buckets

(* Flush dirty bucket [b]'s chain, then compact it (newest version per
   key wins; tombstones and stale versions retire). *)
let flush_compact t m b =
  let head_addr = t.heads + b in
  Simnvm.Memsys.pwb m head_addr;
  (* flush the chain records *)
  let rec flush_chain node =
    if node <> 0 then begin
      Simnvm.Memsys.pwb m node;
      flush_chain (Simnvm.Memsys.load m (node + 2))
    end
  in
  flush_chain (Simnvm.Memsys.load m head_addr);
  (* compact: rebuild keeping the newest version of each key *)
  let seen = Hashtbl.create 8 in
  let keep = ref [] in
  let rec scan node =
    if node <> 0 then begin
      let key = Simnvm.Memsys.load m node in
      let value = Simnvm.Memsys.load m (node + 1) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        if value <> tombstone then keep := node :: !keep
        else Pds.Bump.free t.nvm_bump node ~words:record_words
      end
      else begin
        Pds.Bump.free t.nvm_bump node ~words:record_words;
        t.compacted <- t.compacted + 1
      end;
      scan (Simnvm.Memsys.load m (node + 2))
    end
  in
  scan (Simnvm.Memsys.load m head_addr);
  (* !keep is oldest-first; relink preserving newest-first order *)
  let new_head =
    List.fold_left
      (fun next node ->
        Simnvm.Memsys.store m (node + 2) next;
        Simnvm.Memsys.pwb m node;
        node)
      0 !keep
  in
  Simnvm.Memsys.store m head_addr new_head;
  Simnvm.Memsys.pwb m head_addr

(* Epoch boundary: every dirty bucket, as a flusher pool. *)
let epoch_body t () =
  let m = Simsched.Env.mem t.env in
  ignore
    (Simsched.Env.pool_makespan t.env ~pool:t.flusher_pool (fun () ->
         Hashtbl.iter (fun b () -> flush_compact t m b) t.dirty;
         Simnvm.Memsys.psync m));
  Hashtbl.reset t.dirty

let create env ~max_threads ~period_ns ~flusher_pool ~buckets =
  let sched = Simsched.Env.sched env in
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem env) in
  let lw = mcfg.Simnvm.Memsys.line_words in
  let nvm_bump =
    Pds.Bump.create env ~base:lw ~limit:mcfg.Simnvm.Memsys.nvm_words
  in
  let heads = Pds.Bump.alloc nvm_bump ~words:buckets in
  let t =
    {
      env;
      gate = Epoch_gate.create sched ~max_threads;
      buckets;
      heads;
      locks = Array.init buckets (fun _ -> Simsched.Mutex.create ~name:"dali" ());
      nvm_bump;
      dirty = Hashtbl.create 256;
      flusher_pool;
      compacted = 0;
    }
  in
  Epoch_gate.start t.gate ~period_ns (epoch_body t);
  t

let prepend t ~key ~value b =
  let r = Pds.Bump.alloc t.nvm_bump ~words:record_words in
  let head_addr = t.heads + b in
  Simsched.Env.store t.env r key;
  Simsched.Env.store t.env (r + 1) value;
  Simsched.Env.store t.env (r + 2) (Simsched.Env.load t.env head_addr);
  Simsched.Env.store t.env head_addr r;
  Hashtbl.replace t.dirty b ()

(* Newest version of the key in the chain, 0 when absent. *)
let rec find t node key =
  if node = 0 then 0
  else if Simsched.Env.load t.env node = key then node
  else find t (Simsched.Env.load t.env (node + 2)) key

let sched t = Simsched.Env.sched t.env

let insert t ~slot:_ ~key ~value =
  let b = bucket t key in
  Simsched.Mutex.with_lock (sched t) t.locks.(b) (fun () ->
      let existing = find t (Simsched.Env.load t.env (t.heads + b)) key in
      let fresh =
        existing = 0 || Simsched.Env.load t.env (existing + 1) = tombstone
      in
      prepend t ~key ~value b;
      fresh)

let search t ~slot:_ ~key =
  let b = bucket t key in
  Simsched.Mutex.with_lock (sched t) t.locks.(b) (fun () ->
      match find t (Simsched.Env.load t.env (t.heads + b)) key with
      | 0 -> None
      | node ->
          let v = Simsched.Env.load t.env (node + 1) in
          if v = tombstone then None else Some v)

let remove t ~slot:_ ~key =
  let b = bucket t key in
  Simsched.Mutex.with_lock (sched t) t.locks.(b) (fun () ->
      match find t (Simsched.Env.load t.env (t.heads + b)) key with
      | 0 -> false
      | node ->
          if Simsched.Env.load t.env (node + 1) = tombstone then false
          else begin
            prepend t ~key ~value:tombstone b;
            true
          end)

let system t : Pds.Ops.system =
  {
    Pds.Ops.sys_register = (fun ~slot -> Epoch_gate.register t.gate ~slot);
    sys_deregister = (fun ~slot -> Epoch_gate.deregister t.gate ~slot);
    sys_allow = (fun ~slot -> Epoch_gate.allow t.gate ~slot);
    sys_prevent = (fun ~slot -> Epoch_gate.prevent t.gate ~slot);
    sys_stop = (fun () -> Epoch_gate.stop t.gate);
  }

let make_map env ~max_threads ~period_ns ~flusher_pool ~buckets =
  let t = create env ~max_threads ~period_ns ~flusher_pool ~buckets in
  ( {
      Pds.Ops.insert = (fun ~slot ~key ~value -> insert t ~slot ~key ~value);
      remove = (fun ~slot ~key -> remove t ~slot ~key);
      search = (fun ~slot ~key -> search t ~slot ~key);
      map_rp = (fun ~slot ~id:_ -> Epoch_gate.pause_point t.gate ~slot);
    },
    system t )
