(* Bounded schedule exploration: seed sweeps plus targeted preemption
   injection at synchronisation trace events.

   A sweep runs each scenario under several scheduler seeds (with charge
   jitter, so seeds genuinely permute interleavings) and, per seed, once
   per targeted synchronisation point: a subscriber on the world's
   [Trace] bus counts lock acquisitions and atomic RMWs and, at the n-th
   one, charges a delay to the running thread and forces it to switch out
   at its next poll ([Scheduler.preempt_now]) — exactly the "adversary
   preempts you inside your critical window" schedules a seed sweep is
   unlikely to hit. A [Deadlock] from the scheduler is a failure like any
   assertion: lost-wakeup and lock-order bugs surface here. *)

type injection = { at_sync : int; delay_ns : float }

(* Count Acquire/Rmw events; fire the injection at the chosen one. The
   subscription is detached on every exit path. *)
let with_injection sched inj f =
  let n = ref 0 in
  let bus = Simsched.Scheduler.trace_bus sched in
  let sub =
    Simsched.Trace.subscribe bus (fun ev ->
        match ev with
        | Simsched.Trace.Acquire _ | Simsched.Trace.Rmw _ ->
            (match inj with
            | Some { at_sync; delay_ns } when !n = at_sync ->
                Simsched.Scheduler.charge sched delay_ns;
                Simsched.Scheduler.preempt_now sched
            | _ -> ());
            incr n
        | _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> Simsched.Trace.unsubscribe bus sub)
    (fun () ->
      let r = f () in
      (r, !n))

type spec = {
  name : string;
  run :
    sched_seed:int -> injection option -> (unit, string) result * int;
      (** result and the number of sync points seen *)
}

type failure = {
  spec : string;
  sched_seed : int;
  injection : injection option;
  reason : string;
}

let pp_failure ppf f =
  Fmt.pf ppf "%s: seed=%d%s: %s" f.spec f.sched_seed
    (match f.injection with
    | None -> ""
    | Some i ->
        Printf.sprintf " preempt@sync=%d delay=%.0fns" i.at_sync i.delay_ns)
    f.reason

let sweep (s : spec) ~seeds ~delays ~stride =
  List.concat_map
    (fun sched_seed ->
      let base, syncs = s.run ~sched_seed None in
      let base_failures =
        match base with
        | Ok () -> []
        | Error reason -> [ { spec = s.name; sched_seed; injection = None; reason } ]
      in
      let rec targets at acc =
        if at >= syncs then List.rev acc else targets (at + stride) (at :: acc)
      in
      let injected =
        List.concat_map
          (fun at_sync ->
            List.filter_map
              (fun delay_ns ->
                let inj = { at_sync; delay_ns } in
                match fst (s.run ~sched_seed (Some inj)) with
                | Ok () -> None
                | Error reason ->
                    Some
                      { spec = s.name; sched_seed; injection = Some inj; reason })
              delays)
          (targets 0 [])
      in
      base_failures @ injected)
    seeds

(* ------------------------------------------------------------------ *)
(* Scenario 1: transient lock-based queue on NVMM, two producers. The
   per-producer FIFO order and the completeness of the drained multiset
   must survive any interleaving the injector forces. *)

let jitter = 0.02
let per_producer = 12

(* Virtual-time bounded wait: a plain yield-spin would keep the waiter
   runnable forever and mask a deadlock among the watched threads from
   both the scheduler's detector and the host. Returns [false] on
   timeout — the waiter-side symptom of a stuck schedule. *)
let wait_until sched ~deadline cond =
  while (not (cond ())) && Simsched.Scheduler.now sched < deadline do
    Simsched.Scheduler.sleep sched 200.0
  done;
  cond ()

let transient_queue_spec : spec =
  let run ~sched_seed inj =
    let mem = Simnvm.Memsys.create (Scenarios.mem_cfg ~mem_seed:1 ~pcso:true) in
    let sched =
      Simsched.Scheduler.create ~seed:sched_seed ~quantum:0.0 ~jitter ()
    in
    let env = Simsched.Env.make mem sched in
    with_injection sched inj (fun () ->
        let lw = (Simnvm.Memsys.config mem).Simnvm.Memsys.line_words in
        let arena =
          Pds.Mem_iface.of_env_bump env
            (Pds.Bump.create env ~base:lw
               ~limit:(Simnvm.Memsys.config mem).Simnvm.Memsys.nvm_words)
        in
        let q = ref None in
        let done_producers = ref 0 in
        let drained = ref [] in
        ignore
          (Simsched.Scheduler.spawn ~name:"setup" sched (fun () ->
               let queue = Pds.Queue_transient.create env arena in
               q := Some queue;
               for p = 0 to 1 do
                 ignore
                   (Simsched.Scheduler.spawn
                      ~name:(Printf.sprintf "enq%d" p)
                      sched
                      (fun () ->
                        for i = 1 to per_producer do
                          Pds.Queue_transient.enqueue queue ~slot:p
                            (((p + 1) * 10_000) + i)
                        done;
                        incr done_producers))
               done;
               ignore
                 (Simsched.Scheduler.spawn ~name:"drain" sched (fun () ->
                      if
                        wait_until sched ~deadline:5.0e6 (fun () ->
                            !done_producers >= 2)
                      then
                        let rec pull () =
                          match Pds.Queue_transient.dequeue queue ~slot:2 with
                          | Some v ->
                              drained := v :: !drained;
                              pull ()
                          | None -> ()
                        in
                        pull ()))));
        match Simsched.Scheduler.run sched with
        | exception Simsched.Scheduler.Deadlock d -> Error ("deadlock: " ^ d)
        | Simsched.Scheduler.Crash_interrupt _ -> Error "unexpected crash"
        | Simsched.Scheduler.Completed ->
            let out = List.rev !drained in
            let per p = List.filter (fun v -> v / 10_000 = p + 1) out in
            let increasing l = List.sort compare l = l in
            if List.length out <> 2 * per_producer then
              Error
                (Printf.sprintf "drained %d of %d values" (List.length out)
                   (2 * per_producer))
            else if not (increasing (per 0) && increasing (per 1)) then
              Error "per-producer FIFO order violated"
            else Ok ())
  in
  { name = "transient-queue-2p"; run }

(* Scenario 2: ResPCT map, two workers on disjoint key ranges with
   restart points and a periodic checkpoint coordinator; after the
   workers exit, a checker thread validates the volatile contents against
   the per-worker models. Deadlocks between [rp] parking and the
   coordinator's quiescence wait are the target bug class. *)

let respct_map_spec_with ~name ~cfg : spec =
  let run ~sched_seed inj =
    let mem = Simnvm.Memsys.create (Scenarios.mem_cfg ~mem_seed:1 ~pcso:true) in
    let sched =
      Simsched.Scheduler.create ~seed:sched_seed ~quantum:0.0 ~jitter ()
    in
    let env = Simsched.Env.make mem sched in
    with_injection sched inj (fun () ->
        let r = Respct.Runtime.create ~cfg env in
        let finished = ref false in
        let done_workers = ref 0 in
        let models = [| Hashtbl.create 16; Hashtbl.create 16 |] in
        let errors = ref [] in
        ignore
          (Simsched.Scheduler.spawn ~name:"setup" sched (fun () ->
               let m = Pds.Hashmap_respct.create r ~slot:0 ~buckets:8 in
               ignore
                 (Simsched.Scheduler.spawn ~name:"ckpt" sched (fun () ->
                      (* bounded like the waiters: an unbounded periodic
                         loop would keep the world runnable forever and
                         mask a worker deadlock *)
                      let rec loop at =
                        if (not !finished) && at < 5.0e6 then begin
                          Simsched.Scheduler.sleep_until sched at;
                          if not !finished then begin
                            Respct.Runtime.run_checkpoint r;
                            loop (at +. 3_000.0)
                          end
                        end
                      in
                      loop 3_000.0));
               for w = 0 to 1 do
                 ignore
                   (Respct.Runtime.spawn r ~slot:w (fun _ctx ->
                        List.iter
                          (fun op ->
                            (match op with
                            | Workmix.Insert (key, value) ->
                                let key = (w * 100) + key in
                                ignore
                                  (Pds.Hashmap_respct.insert m ~slot:w ~key
                                     ~value);
                                Hashtbl.replace models.(w) key value
                            | Workmix.Remove key ->
                                let key = (w * 100) + key in
                                ignore (Pds.Hashmap_respct.remove m ~slot:w ~key);
                                Hashtbl.remove models.(w) key
                            | Workmix.Search key ->
                                ignore
                                  (Pds.Hashmap_respct.search m ~slot:w
                                     ~key:((w * 100) + key)));
                            Respct.Runtime.rp r ~slot:w (w + 1))
                          (Workmix.map_ops ~seed:(91 + w) ~n:16 ());
                        incr done_workers;
                        if !done_workers = 2 then begin
                          finished := true;
                          (* wake idle pipeline flushers, or the world
                             ends in a (reported) deadlock *)
                          if cfg.Respct.Runtime.pipeline then
                            Respct.Runtime.stop r
                        end))
               done;
               ignore
                 (Simsched.Scheduler.spawn ~name:"check" sched (fun () ->
                      if
                        not
                          (wait_until sched ~deadline:5.0e6 (fun () ->
                               !finished))
                      then errors := "timeout waiting for workers" :: !errors
                      else
                      Array.iteri
                        (fun w model ->
                          Hashtbl.iter
                            (fun key value ->
                              match
                                Pds.Hashmap_respct.search m ~slot:3 ~key
                              with
                              | Some v when v = value -> ()
                              | got ->
                                  errors :=
                                    Printf.sprintf
                                      "worker %d key %d: expected %d, found %s"
                                      w key value
                                      (match got with
                                      | None -> "nothing"
                                      | Some v -> string_of_int v)
                                    :: !errors)
                            model)
                        models))));
        match Simsched.Scheduler.run sched with
        | exception Simsched.Scheduler.Deadlock d -> Error ("deadlock: " ^ d)
        | Simsched.Scheduler.Crash_interrupt _ -> Error "unexpected crash"
        | Simsched.Scheduler.Completed -> (
            match !errors with
            | [] -> Ok ()
            | e :: _ -> Error e))
  in
  { name; run }

let respct_map_spec =
  respct_map_spec_with ~name:"respct-map-2w" ~cfg:Scenarios.rt_cfg

let all_specs = [ transient_queue_spec; respct_map_spec ]

(* The pipelined variant is the deadlock hunt for the new machinery: rp
   parking on [wait_epoch_durable], the coordinator's backpressure wait
   and the flusher pool's condvars all interleave under the injected
   preemptions. Kept out of [all_specs] (the smoke golden pins its spec
   count); the pipeline matrix check sweeps it. *)
let respct_map_pipeline_spec =
  respct_map_spec_with ~name:"respct-map-2w-pipeline"
    ~cfg:{ Scenarios.rt_cfg with Respct.Runtime.pipeline = true }

let pipeline_specs = [ respct_map_pipeline_spec ]
