type map_params = {
  nthreads : int;
  duration_ns : float;
  key_space : int;
  update_pct : int;
  prefill : int;
  seed : int;
}

type queue_params = {
  q_nthreads : int;
  q_duration_ns : float;
  q_prefill : int;
  q_seed : int;
}

type result = {
  mops : float;
  elapsed_ns : float;
  total_ops : int;
}

(* Spread prefill keys over the key space deterministically. *)
let prefill_key i key_space = (i * 2654435761) land max_int mod key_space

(* Generic three-phase driver: [setup] runs on a setup thread and builds
   the structure; the workers then prefill their shares in parallel, meet at
   a barrier, and each runs operations for [duration_ns] of virtual time
   (the paper's methodology: fixed duration, count completed operations). *)
let drive ?mem ?(on_window = fun () -> ()) ~sched ~nthreads ~seed ~setup
    ~prefill_total ~prefill_op ~duration_ns ~run_op () =
  let ready = Simsched.Barrier.create ~name:"ready" (nthreads + 1) in
  let start = Simsched.Barrier.create ~name:"start" nthreads in
  let remaining = ref nthreads in
  let sys = ref Pds.Ops.null_system in
  let starts = Array.make nthreads 0.0 in
  let ends = Array.make nthreads 0.0 in
  let counts = Array.make nthreads 0 in
  ignore
    (Simsched.Scheduler.spawn ~name:"setup" sched (fun () ->
         sys := setup ();
         Simsched.Barrier.await sched ready));
  for w = 0 to nthreads - 1 do
    ignore
      (Simsched.Scheduler.spawn ~name:(Printf.sprintf "worker%d" w) sched
         (fun () ->
           Simsched.Barrier.await sched ready;
           let slot = w in
           (!sys).Pds.Ops.sys_register ~slot;
           (* Parallel prefill: worker [w] inserts the keys congruent to
              [w] modulo [nthreads]. *)
           let rec prefill i =
             if i < prefill_total then begin
               prefill_op ~slot i;
               prefill (i + nthreads)
             end
           in
           prefill w;
           (* Blocking at the barrier while a checkpoint is pending would
              deadlock the epoch (paper section 3.3.3): permit checkpoints
              for the duration of the wait. *)
           (!sys).Pds.Ops.sys_allow ~slot;
           Simsched.Barrier.await sched start;
           (!sys).Pds.Ops.sys_prevent ~slot;
           (* Memory statistics cover the measured window only; [on_window]
              lets callers reset their own probes (metric registries) at the
              same instant. *)
           if slot = 0 then begin
             Option.iter
               (fun m -> Simnvm.Stats.reset (Simnvm.Memsys.stats m))
               mem;
             on_window ()
           end;
           let rng = Simnvm.Rng.create ((seed * 8191) + w) in
           starts.(w) <- Simsched.Scheduler.now sched;
           let deadline = starts.(w) +. duration_ns in
           let n = ref 0 in
           while Simsched.Scheduler.now sched < deadline do
             run_op ~slot rng;
             incr n
           done;
           counts.(w) <- !n;
           ends.(w) <- Simsched.Scheduler.now sched;
           (!sys).Pds.Ops.sys_deregister ~slot;
           (* The last worker shuts the background coordinator down, or the
              scheduler would spin on its periodic timer forever. *)
           remaining := !remaining - 1;
           if !remaining = 0 then (!sys).Pds.Ops.sys_stop ()))
  done;
  (match Simsched.Scheduler.run sched with
  | Simsched.Scheduler.Completed -> ()
  | Simsched.Scheduler.Crash_interrupt _ -> failwith "unexpected crash");
  let total = Array.fold_left ( + ) 0 counts in
  let window_sum =
    Array.fold_left ( +. ) 0.0 (Array.map2 ( -. ) ends starts)
  in
  let mean_window = window_sum /. float_of_int nthreads in
  {
    mops = float_of_int total /. Float.max 1.0 mean_window *. 1e3;
    elapsed_ns = mean_window;
    total_ops = total;
  }

let run_map ?mem ?on_window ~sched ~(params : map_params) ~build () =
  let ops = ref None in
  let setup () =
    let o, sys = build () in
    ops := Some o;
    sys
  in
  let prefill_op ~slot i =
    let o = Option.get !ops in
    ignore
      (o.Pds.Ops.insert ~slot ~key:(prefill_key i params.key_space) ~value:i);
    (* Restart point during the load phase too, so checkpoints drain the
       prefill incrementally instead of stalling the measured window. *)
    o.Pds.Ops.map_rp ~slot ~id:2
  in
  let run_op ~slot rng =
    let o = Option.get !ops in
    let key = Simnvm.Rng.int rng params.key_space in
    let dice = Simnvm.Rng.int rng 100 in
    if dice < params.update_pct / 2 then
      ignore (o.Pds.Ops.insert ~slot ~key ~value:(Simnvm.Rng.bits rng))
    else if dice < params.update_pct then ignore (o.Pds.Ops.remove ~slot ~key)
    else ignore (o.Pds.Ops.search ~slot ~key);
    o.Pds.Ops.map_rp ~slot ~id:1
  in
  drive ?mem ?on_window ~sched ~nthreads:params.nthreads ~seed:params.seed
    ~setup ~prefill_total:params.prefill ~prefill_op
    ~duration_ns:params.duration_ns ~run_op ()

let run_queue ?mem ?on_window ~sched ~(params : queue_params) ~build () =
  let ops = ref None in
  let setup () =
    let o, sys = build () in
    ops := Some o;
    sys
  in
  let prefill_op ~slot i =
    let o = Option.get !ops in
    o.Pds.Ops.enqueue ~slot i;
    o.Pds.Ops.queue_rp ~slot ~id:2
  in
  let run_op ~slot rng =
    let o = Option.get !ops in
    if Simnvm.Rng.bool rng then o.Pds.Ops.enqueue ~slot (Simnvm.Rng.bits rng)
    else ignore (o.Pds.Ops.dequeue ~slot);
    o.Pds.Ops.queue_rp ~slot ~id:1
  in
  drive ?mem ?on_window ~sched ~nthreads:params.q_nthreads ~seed:params.q_seed
    ~setup ~prefill_total:params.q_prefill ~prefill_op
    ~duration_ns:params.q_duration_ns ~run_op ()
