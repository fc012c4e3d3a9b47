let vnode_words = 4
let pnode_words = 3

type t = {
  env : Simsched.Env.t;
  buckets : int;
  heads : int; (* DRAM bucket array *)
  dram_bump : Pds.Bump.t;
  nvm_bump : Pds.Bump.t;
}

let create env ~buckets =
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem env) in
  let lw = mcfg.Simnvm.Memsys.line_words in
  let dram_base = mcfg.Simnvm.Memsys.nvm_words in
  let dram_bump =
    Pds.Bump.create env ~base:dram_base
      ~limit:(dram_base + mcfg.Simnvm.Memsys.dram_words)
  in
  let nvm_bump = Pds.Bump.create env ~base:lw ~limit:mcfg.Simnvm.Memsys.nvm_words in
  let heads = Pds.Bump.alloc dram_bump ~words:buckets in
  { env; buckets; heads; dram_bump; nvm_bump }

let bucket t key = (key land max_int) mod t.buckets

let rec find t node key =
  if node = 0 then 0
  else if Simsched.Env.load t.env node = key then node
  else find t (Simsched.Env.load t.env (node + 3)) key

(* Validity tag of a pnode (never 0, the invalidated state). *)
let tag ~key ~value = ((key * 0x9E3779B1) lxor value lxor 0x5BF03635) lor 1

(* Persist a pnode: one flush + one fence, the whole durability cost of a
   SOFT update (two flushes only when the pnode straddles a line). *)
let persist_pnode t ~key ~value =
  let p = Pds.Bump.alloc t.nvm_bump ~words:pnode_words in
  Simsched.Env.store t.env p key;
  Simsched.Env.store t.env (p + 1) value;
  Simsched.Env.store t.env (p + 2) (tag ~key ~value);
  Simsched.Env.pwb t.env p;
  let lw = Simsched.Env.line_words t.env in
  if not (Simnvm.Addr.same_line ~line_words:lw p (p + pnode_words - 1)) then
    Simsched.Env.pwb t.env (p + pnode_words - 1);
  Simsched.Env.psync t.env;
  p

let insert t ~slot:_ ~key ~value =
  let b = t.heads + bucket t key in
  let rec retry () =
    let head = Simsched.Env.load t.env b in
    match find t head key with
    | 0 ->
        let p = persist_pnode t ~key ~value in
        let v = Pds.Bump.alloc t.dram_bump ~words:vnode_words in
        Simsched.Env.store t.env v key;
        Simsched.Env.store t.env (v + 1) value;
        Simsched.Env.store t.env (v + 2) p;
        Simsched.Env.store t.env (v + 3) head;
        if Simsched.Env.cas t.env b ~expected:head ~desired:v then true
        else begin
          Pds.Bump.free t.dram_bump v ~words:vnode_words;
          retry ()
        end
    | node ->
        (* update in place: new pnode persisted, old one invalidated *)
        let p_old = Simsched.Env.load t.env (node + 2) in
        let p = persist_pnode t ~key ~value in
        Simsched.Env.store t.env (node + 1) value;
        Simsched.Env.store t.env (node + 2) p;
        Simsched.Env.store t.env (p_old + 2) 0;
        Simsched.Env.pwb t.env (p_old + 2);
        Simsched.Env.psync t.env;
        false
  in
  retry ()

let search t ~slot:_ ~key =
  (* flush-free, lock-free: the SOFT fast path *)
  let head = Simsched.Env.load t.env (t.heads + bucket t key) in
  match find t head key with
  | 0 -> None
  | node -> Some (Simsched.Env.load t.env (node + 1))

let remove t ~slot:_ ~key =
  let b = t.heads + bucket t key in
  let rec unlink prev node =
    if node = 0 then false
    else if Simsched.Env.load t.env node = key then begin
      (* durability point: invalidate the pnode *)
      let p = Simsched.Env.load t.env (node + 2) in
      Simsched.Env.store t.env (p + 2) 0;
      Simsched.Env.pwb t.env (p + 2);
      Simsched.Env.psync t.env;
      let nxt = Simsched.Env.load t.env (node + 3) in
      let target = if prev = 0 then b else prev + 3 in
      if Simsched.Env.cas t.env target ~expected:node ~desired:nxt then true
      else unlink_retry ()
    end
    else unlink node (Simsched.Env.load t.env (node + 3))
  and unlink_retry () = unlink 0 (Simsched.Env.load t.env b) in
  unlink_retry ()

let ops t =
  {
    Pds.Ops.insert = (fun ~slot ~key ~value -> insert t ~slot ~key ~value);
    remove = (fun ~slot ~key -> remove t ~slot ~key);
    search = (fun ~slot ~key -> search t ~slot ~key);
    map_rp = Pds.Ops.no_rp;
  }

let make_map env ~buckets =
  (ops (create env ~buckets), Pds.Ops.null_system)

let make_map_instrumented env ~buckets =
  let t = create env ~buckets in
  (t, ops t)

let persisted_bindings mem t =
  let mcfg = Simnvm.Memsys.config mem in
  let base = mcfg.Simnvm.Memsys.line_words in
  let stop = base + Pds.Bump.used t.nvm_bump ~base in
  let p = Simnvm.Memsys.persisted mem in
  let acc = ref [] in
  let a = ref base in
  while !a + pnode_words <= stop do
    let key = p !a and value = p (!a + 1) and valid = p (!a + 2) in
    if valid <> 0 && valid = tag ~key ~value then acc := (key, value) :: !acc;
    a := !a + pnode_words
  done;
  List.sort compare !acc
