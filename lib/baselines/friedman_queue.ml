let node_words = 2

type t = {
  env : Simsched.Env.t;
  head_ptr : int; (* NVM *)
  tail_ptr : int;
  nvm_bump : Pds.Bump.t;
}

let create env =
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem env) in
  let lw = mcfg.Simnvm.Memsys.line_words in
  let nvm_bump =
    Pds.Bump.create env ~base:(2 * lw) ~limit:mcfg.Simnvm.Memsys.nvm_words
  in
  let ptrs = lw (* head and tail in one line of their own *) in
  let sentinel = Pds.Bump.alloc nvm_bump ~words:node_words in
  Simsched.Env.store env (sentinel + 1) 0;
  Simsched.Env.pwb env sentinel;
  Simsched.Env.store env ptrs sentinel;
  Simsched.Env.store env (ptrs + 1) sentinel;
  Simsched.Env.pwb env ptrs;
  Simsched.Env.psync env;
  { env; head_ptr = ptrs; tail_ptr = ptrs + 1; nvm_bump }

(* The linearisation + flush chain of an operation runs inside the
   exclusive-ownership window of the head/tail line: successive operations
   genuinely wait on each other's flushes in the published algorithm (an
   enqueuer cannot link until the previous link is persisted and the tail
   swung), and the simulator's virtual-time value flow would otherwise let
   them overlap. *)
let enqueue t ~slot:_ v =
  let node = Pds.Bump.alloc t.nvm_bump ~words:node_words in
  Simsched.Env.store t.env node v;
  Simsched.Env.store t.env (node + 1) 0;
  Simsched.Env.pwb t.env node;
  Simsched.Env.psync t.env;
  Simsched.Env.serialize_rmw t.env t.tail_ptr (fun () ->
      let rec retry () =
        let tail = Simsched.Env.load t.env t.tail_ptr in
        let next = Simsched.Env.load t.env (tail + 1) in
        if next = 0 then
          if Simsched.Env.cas t.env (tail + 1) ~expected:0 ~desired:node
          then begin
            Simsched.Env.pwb t.env (tail + 1);
            Simsched.Env.psync t.env;
            ignore
              (Simsched.Env.cas t.env t.tail_ptr ~expected:tail ~desired:node)
          end
          else retry ()
        else begin
          (* help: swing the stale tail forward *)
          Simsched.Env.pwb t.env (tail + 1);
          Simsched.Env.psync t.env;
          ignore
            (Simsched.Env.cas t.env t.tail_ptr ~expected:tail ~desired:next);
          retry ()
        end
      in
      retry ())

let dequeue t ~slot:_ =
  Simsched.Env.serialize_rmw t.env t.head_ptr (fun () ->
      let rec retry () =
        let head = Simsched.Env.load t.env t.head_ptr in
        let first = Simsched.Env.load t.env (head + 1) in
        if first = 0 then None
        else begin
          let v = Simsched.Env.load t.env first in
          if Simsched.Env.cas t.env t.head_ptr ~expected:head ~desired:first
          then begin
            (* persist the returned value record and the new head so the
               dequeue survives a crash (two flush+fence pairs) *)
            Simsched.Env.pwb t.env first;
            Simsched.Env.psync t.env;
            Simsched.Env.pwb t.env t.head_ptr;
            Simsched.Env.psync t.env;
            Some v
          end
          else retry ()
        end
      in
      retry ())

let ops t =
  {
    Pds.Ops.enqueue = (fun ~slot v -> enqueue t ~slot v);
    dequeue = (fun ~slot -> dequeue t ~slot);
    queue_rp = Pds.Ops.no_rp;
  }

let make_queue env =
  let t = create env in
  (ops t, Pds.Ops.null_system)

let make_queue_instrumented env =
  let t = create env in
  (t, ops t)

let persisted_contents mem t =
  let p = Simnvm.Memsys.persisted mem in
  (* Fuel bounds the walk: corrupt crash images can tie the chain into a
     cycle. *)
  let rec walk node acc fuel =
    if node = 0 then List.rev acc
    else if fuel = 0 then failwith "persisted queue chain is cyclic"
    else walk (p (node + 1)) (p node :: acc) (fuel - 1)
  in
  let sentinel = p t.head_ptr in
  if sentinel = 0 then []
  else
    walk (p (sentinel + 1)) []
      (Simnvm.Memsys.config mem).Simnvm.Memsys.nvm_words
