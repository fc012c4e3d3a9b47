(* Memcached-like in-memory key-value store (paper section 5.3, Figure 14):
   client threads issue requests through a shared queue; a small pool of
   worker threads executes them against the hash table, which is the only
   persistent state (the paper's port persists exactly the key-value hash
   table). Responses are asynchronous writes: the client is answered as
   soon as the operation is applied, without waiting for durability — the
   paper's "asynchronous writes version".

   Clients are closed-loop RPC callers (enqueue, block on a response
   condition variable, repeat), which exercises the Figure 7
   checkpoint_allow/prevent protocol on both sides of the queue. *)

type cfg = {
  clients : int;
  workers : int;
  keys : int;
  buckets : int;
  load_ops : int;
  run_ops : int; (* total measured operations *)
  mix : Ycsb.mix;
}

let default_cfg =
  {
    clients = 32;
    workers = 4;
    keys = 20_000;
    buckets = 20_000;
    load_ops = 20_000;
    run_ops = 60_000;
    mix = Ycsb.read_intensive;
  }

type request = {
  op : Ycsb.op;
  client : int;
}

type t = {
  q : request Queue.t;
  qm : Simsched.Mutex.t;
  q_nonempty : Simsched.Condvar.t;
  response_m : Simsched.Mutex.t array; (* per client *)
  response_cv : Simsched.Condvar.t array;
  response_ready : bool array;
  mutable stop : bool;
}

let network_ns = 250.0 (* request parsing + response serialisation share *)

(* Returns (virtual makespan of the measured phase, ops completed). *)
let run env persistence (cfg : cfg) =
  let sched = Simsched.Env.sched env in
  let t =
    {
      q = Queue.create ();
      qm = Simsched.Mutex.create ~name:"kv-q" ();
      q_nonempty = Simsched.Condvar.create ();
      response_m =
        Array.init cfg.clients (fun _ -> Simsched.Mutex.create ~name:"kv-resp" ());
      response_cv =
        Array.init cfg.clients (fun _ -> Simsched.Condvar.create ());
      response_ready = Array.make cfg.clients false;
      stop = false;
    }
  in
  let table = ref None in
  let completed = ref 0 in
  let finished_clients = ref 0 in
  let t_start = ref infinity and t_end = ref 0.0 in
  let nthreads = cfg.workers + cfg.clients in
  (* Slots: workers use 0..workers-1, clients workers..workers+clients-1. *)
  let setup () =
    table :=
      Some
        (match persistence with
        | App_env.Durable rt ->
            `Respct (Pds.Hashmap_respct.create rt ~slot:0 ~buckets:cfg.buckets)
        | App_env.Transient ->
            let mcfg = Simnvm.Memsys.config (Simsched.Env.mem env) in
            let bump =
              Pds.Bump.create env
                ~base:(mcfg.Simnvm.Memsys.nvm_words / 2)
                ~limit:mcfg.Simnvm.Memsys.nvm_words
            in
            `Transient
              (Pds.Hashmap_transient.create env
                 (Pds.Mem_iface.of_env_bump env bump)
                 ~buckets:cfg.buckets))
  in
  let wait ~slot cv m =
    match persistence with
    | App_env.Transient -> Simsched.Condvar.wait sched cv m
    | App_env.Durable rt -> Respct.Runtime.cond_wait rt ~slot cv m
  in
  let execute ~slot op =
    match (Option.get !table, op) with
    | `Respct m, Ycsb.Get k -> ignore (Pds.Hashmap_respct.search m ~slot ~key:k)
    | `Respct m, Ycsb.Put (k, v) ->
        ignore (Pds.Hashmap_respct.insert m ~slot ~key:k ~value:v)
    | `Transient m, Ycsb.Get k ->
        ignore (Pds.Hashmap_transient.search m ~slot ~key:k)
    | `Transient m, Ycsb.Put (k, v) ->
        ignore (Pds.Hashmap_transient.insert m ~slot ~key:k ~value:v)
  in
  let makespan =
    App_env.run_workers ~setup env persistence ~nthreads (fun ~slot ->
        if slot < cfg.workers then begin
          (* server worker *)
          let continue = ref true in
          while !continue do
            App_env.rp persistence ~slot 1;
            Simsched.Mutex.lock sched t.qm;
            while Queue.is_empty t.q && not t.stop do
              wait ~slot t.q_nonempty t.qm
            done;
            if Queue.is_empty t.q && t.stop then begin
              continue := false;
              Simsched.Mutex.unlock sched t.qm
            end
            else begin
              let r = Queue.pop t.q in
              Simsched.Mutex.unlock sched t.qm;
              Simsched.Env.compute env network_ns;
              execute ~slot r.op;
              (* asynchronous write: respond without waiting for durability *)
              Simsched.Mutex.lock sched t.response_m.(r.client);
              t.response_ready.(r.client) <- true;
              Simsched.Condvar.signal sched t.response_cv.(r.client);
              Simsched.Mutex.unlock sched t.response_m.(r.client)
            end
          done
        end
        else begin
          (* client *)
          let c = slot - cfg.workers in
          let rng = Simnvm.Rng.create (977 * (c + 1)) in
          let z = Ycsb.make_zipf cfg.keys in
          (* load phase: clients share the load keys round-robin *)
          let rec load i =
            if i < cfg.load_ops then begin
              let key = Ycsb.scramble i cfg.keys in
              Simsched.Mutex.lock sched t.qm;
              Queue.push { op = Ycsb.Put (key, i); client = c } t.q;
              Simsched.Condvar.signal sched t.q_nonempty;
              Simsched.Mutex.unlock sched t.qm;
              Simsched.Mutex.lock sched t.response_m.(c);
              while not t.response_ready.(c) do
                wait ~slot t.response_cv.(c) t.response_m.(c)
              done;
              t.response_ready.(c) <- false;
              Simsched.Mutex.unlock sched t.response_m.(c);
              load (i + cfg.clients)
            end
          in
          load c;
          (* measured phase *)
          if Simsched.Scheduler.now sched < !t_start then
            t_start := Simsched.Scheduler.now sched;
          let per_client = cfg.run_ops / cfg.clients in
          for _ = 1 to per_client do
            App_env.rp persistence ~slot 2;
            let op = Ycsb.next_op cfg.mix z rng in
            Simsched.Mutex.lock sched t.qm;
            Queue.push { op; client = c } t.q;
            Simsched.Condvar.signal sched t.q_nonempty;
            Simsched.Mutex.unlock sched t.qm;
            Simsched.Mutex.lock sched t.response_m.(c);
            while not t.response_ready.(c) do
              wait ~slot t.response_cv.(c) t.response_m.(c)
            done;
            t.response_ready.(c) <- false;
            Simsched.Mutex.unlock sched t.response_m.(c);
            incr completed
          done;
          if Simsched.Scheduler.now sched > !t_end then
            t_end := Simsched.Scheduler.now sched;
          (* last client to finish stops the workers *)
          incr finished_clients;
          if !finished_clients = cfg.clients then begin
            Simsched.Mutex.lock sched t.qm;
            t.stop <- true;
            Simsched.Condvar.broadcast sched t.q_nonempty;
            Simsched.Mutex.unlock sched t.qm
          end
        end)
  in
  ignore makespan;
  (!t_end -. !t_start, !completed)
