(* Tests for the benchmark data structures: functional correctness against
   model oracles, and crash-consistency of the ResPCT variants. *)

open Simnvm
open Simsched

let mem_cfg ?(evict_rate = 0.1) () =
  {
    Memsys.default_config with
    Memsys.evict_rate = evict_rate;
    nvm_words = 1 lsl 19;
    dram_words = 1 lsl 16;
    sets = 128;
    ways = 8;
  }

let world ?evict_rate ?(seed = 1) () =
  let mem = Memsys.create { (mem_cfg ?evict_rate ()) with Memsys.seed = seed } in
  let sched = Scheduler.create ~seed () in
  let env = Env.make mem sched in
  (mem, sched, env)

let rt_cfg =
  {
    Respct.Runtime.period_ns = 40_000.0;
    flusher_pool = 4;
    mode = Respct.Runtime.Full;
    max_threads = 8;
    registry_per_slot = 1 lsl 14;
    integrity = false;
    pipeline = false;
  }

let in_thread sched body =
  ignore (Scheduler.spawn sched body);
  match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "unexpected crash"

(* ------------------------------------------------------------------ *)
(* Transient structures vs model *)

let transient_map env =
  let mcfg = Memsys.config (Env.mem env) in
  let bump = Pds.Bump.create env ~base:8 ~limit:mcfg.Memsys.nvm_words in
  Pds.Hashmap_transient.create env (Pds.Mem_iface.of_env_bump env bump) ~buckets:64

let test_transient_map_model () =
  let _mem, sched, env = world () in
  in_thread sched (fun () ->
      let m = transient_map env in
      let model = Hashtbl.create 64 in
      let rng = Rng.create 5 in
      for i = 1 to 3000 do
        let key = Rng.int rng 200 in
        match Rng.int rng 3 with
        | 0 ->
            let expected = not (Hashtbl.mem model key) in
            Alcotest.(check bool) "insert fresh" expected
              (Pds.Hashmap_transient.insert m ~slot:0 ~key ~value:i);
            Hashtbl.replace model key i
        | 1 ->
            let expected = Hashtbl.mem model key in
            Alcotest.(check bool) "remove present" expected
              (Pds.Hashmap_transient.remove m ~slot:0 ~key);
            Hashtbl.remove model key
        | _ ->
            Alcotest.(check (option int)) "search"
              (Hashtbl.find_opt model key)
              (Pds.Hashmap_transient.search m ~slot:0 ~key)
      done)

let test_transient_queue_fifo () =
  let _mem, sched, env = world () in
  in_thread sched (fun () ->
      let mcfg = Memsys.config (Env.mem env) in
      let bump = Pds.Bump.create env ~base:8 ~limit:mcfg.Memsys.nvm_words in
      let q =
        Pds.Queue_transient.create env (Pds.Mem_iface.of_env_bump env bump)
      in
      let model = Queue.create () in
      let rng = Rng.create 9 in
      for i = 1 to 3000 do
        if Rng.bool rng then begin
          Pds.Queue_transient.enqueue q ~slot:0 i;
          Queue.push i model
        end
        else
          Alcotest.(check (option int)) "dequeue"
            (if Queue.is_empty model then None else Some (Queue.pop model))
            (Pds.Queue_transient.dequeue q ~slot:0)
      done)

(* ------------------------------------------------------------------ *)
(* ResPCT structures vs model (functional, no crash) *)

let test_respct_map_model () =
  let _mem, sched, env = world () in
  let rt = Respct.Runtime.create ~cfg:rt_cfg env in
  Respct.Runtime.start rt;
  ignore
    (Respct.Runtime.spawn rt ~slot:0 (fun _ctx ->
         let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:64 in
         let model = Hashtbl.create 64 in
         let rng = Rng.create 6 in
         for i = 1 to 3000 do
           (let key = Rng.int rng 200 in
            match Rng.int rng 3 with
            | 0 ->
                Alcotest.(check bool) "insert fresh"
                  (not (Hashtbl.mem model key))
                  (Pds.Hashmap_respct.insert m ~slot:0 ~key ~value:i);
                Hashtbl.replace model key i
            | 1 ->
                Alcotest.(check bool) "remove present" (Hashtbl.mem model key)
                  (Pds.Hashmap_respct.remove m ~slot:0 ~key);
                Hashtbl.remove model key
            | _ ->
                Alcotest.(check (option int)) "search"
                  (Hashtbl.find_opt model key)
                  (Pds.Hashmap_respct.search m ~slot:0 ~key));
           Respct.Runtime.rp rt ~slot:0 1
         done;
         Respct.Runtime.stop rt));
  match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash"

let test_respct_queue_fifo_and_reuse () =
  let _mem, sched, env = world () in
  let rt = Respct.Runtime.create ~cfg:rt_cfg env in
  Respct.Runtime.start rt;
  ignore
    (Respct.Runtime.spawn rt ~slot:0 (fun _ctx ->
         let q = Pds.Queue_respct.create rt ~slot:0 in
         let model = Queue.create () in
         let rng = Rng.create 4 in
         for i = 1 to 4000 do
           (if Rng.bool rng then begin
              Pds.Queue_respct.enqueue q ~slot:0 i;
              Queue.push i model
            end
            else
              Alcotest.(check (option int)) "dequeue"
                (if Queue.is_empty model then None else Some (Queue.pop model))
                (Pds.Queue_respct.dequeue q ~slot:0));
           Respct.Runtime.rp rt ~slot:0 1
         done;
         Respct.Runtime.stop rt));
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  (* alloc/free churn across ~100 checkpoints must stay within the heap:
     nodes are recycled (4 words each, 4000 ops worst case well below the
     arena if reuse works) *)
  let used =
    Respct.Heap.used (Respct.Runtime.ctx rt ~slot:0) (Respct.Runtime.heap rt)
  in
  Alcotest.(check bool)
    (Printf.sprintf "heap bounded by reuse (%d words)" used)
    true (used < 40_000)

(* A search on a warmed ResPCT map allocates only its own 9 words: the
   critical-section closure over four variables (7) and the [Some] result
   (2). Nothing comes from the memory's, the scheduler's or the runtime's
   per-access path. Measured with the exact [Gc.minor_words] over 10 240
   searches. *)
let test_respct_search_allocation () =
  let _mem, sched, env = world ~evict_rate:0.0 () in
  let rt = Respct.Runtime.create ~cfg:rt_cfg env in
  let words = ref nan in
  ignore
    (Respct.Runtime.spawn rt ~slot:0 (fun _ctx ->
         let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:64 in
         for key = 0 to 255 do
           ignore (Pds.Hashmap_respct.insert m ~slot:0 ~key ~value:key)
         done;
         let search_all () =
           for key = 0 to 255 do
             ignore (Pds.Hashmap_respct.search m ~slot:0 ~key)
           done
         in
         search_all ();
         let rounds = 40 in
         let before = Gc.minor_words () in
         for _ = 1 to rounds do
           search_all ()
         done;
         words := (Gc.minor_words () -. before) /. float_of_int (rounds * 256)));
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  Alcotest.(check bool)
    (Printf.sprintf "search allocates %.2f words, want <= 9" !words)
    true (!words <= 9.0)

(* ------------------------------------------------------------------ *)
(* Crash-consistency: recovered structure contents = last checkpoint *)

let crash_trial_map seed =
  let mem, sched, env = world ~evict_rate:0.2 ~seed () in
  let rt = Respct.Runtime.create ~cfg:rt_cfg env in
  let map = ref None in
  let snapshots = Hashtbl.create 8 in
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         let rec loop deadline =
           Scheduler.sleep_until sched deadline;
           Respct.Runtime.run_checkpoint rt ~on_flushed:(fun e ->
               Option.iter
                 (fun m ->
                   Hashtbl.replace snapshots e
                     (Pds.Hashmap_respct.persisted_bindings mem m))
                 !map);
           loop (deadline +. 30_000.0)
         in
         loop 30_000.0));
  for w = 0 to 1 do
    ignore
      (Respct.Runtime.spawn rt ~slot:w (fun _ctx ->
           if w = 0 then
             map := Some (Pds.Hashmap_respct.create rt ~slot:0 ~buckets:32);
           while !map = None do
             Scheduler.sleep sched 500.0
           done;
           let m = Option.get !map in
           let rng = Rng.create (seed * 13 + w) in
           let rec loop i =
             (match Gen_common.update_heavy_map_op rng ~key_range:128 ~value:i with
             | Gen_common.Remove key ->
                 ignore (Pds.Hashmap_respct.remove m ~slot:w ~key)
             | Gen_common.Insert (key, value) ->
                 ignore (Pds.Hashmap_respct.insert m ~slot:w ~key ~value)
             | Gen_common.Search key ->
                 ignore (Pds.Hashmap_respct.search m ~slot:w ~key));
             Respct.Runtime.rp rt ~slot:w 1;
             loop (i + 1)
           in
           loop (w * 1_000_000)))
  done;
  Scheduler.set_crash_at sched (60_000.0 +. float_of_int (seed * 9_173));
  (match Scheduler.run sched with
  | Scheduler.Crash_interrupt _ -> ()
  | Scheduler.Completed -> Alcotest.fail "expected crash");
  Memsys.crash mem;
  let rep = Respct.Recovery.run ~threads:2 ~layout:(Respct.Runtime.layout rt) mem in
  match Hashtbl.find_opt snapshots rep.Respct.Recovery.failed_epoch with
  | None -> None
  | Some snap ->
      Some (snap, Pds.Hashmap_respct.persisted_bindings mem (Option.get !map))

let test_map_crash_recovery () =
  let checked = ref 0 in
  for seed = 1 to 6 do
    match crash_trial_map seed with
    | None -> ()
    | Some (snap, recovered) ->
        incr checked;
        Alcotest.(check int)
          (Printf.sprintf "binding count (seed %d)" seed)
          (List.length snap) (List.length recovered);
        Alcotest.(check bool)
          (Printf.sprintf "contents equal (seed %d)" seed)
          true (snap = recovered)
  done;
  Alcotest.(check bool) "at least one trial checked" true (!checked > 0)

let crash_trial_queue seed =
  let mem, sched, env = world ~evict_rate:0.2 ~seed () in
  let rt = Respct.Runtime.create ~cfg:rt_cfg env in
  let queue = ref None in
  let snapshots = Hashtbl.create 8 in
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         let rec loop deadline =
           Scheduler.sleep_until sched deadline;
           Respct.Runtime.run_checkpoint rt ~on_flushed:(fun e ->
               Option.iter
                 (fun q ->
                   Hashtbl.replace snapshots e
                     (Pds.Queue_respct.persisted_contents mem q))
                 !queue);
           loop (deadline +. 30_000.0)
         in
         loop 30_000.0));
  ignore
    (Respct.Runtime.spawn rt ~slot:0 (fun _ctx ->
         let q = Pds.Queue_respct.create rt ~slot:0 in
         queue := Some q;
         let rng = Rng.create (seed * 17) in
         let rec loop i =
           (match Gen_common.biased_queue_op rng ~value:i with
           | Gen_common.Enqueue v -> Pds.Queue_respct.enqueue q ~slot:0 v
           | Gen_common.Dequeue -> ignore (Pds.Queue_respct.dequeue q ~slot:0));
           Respct.Runtime.rp rt ~slot:0 1;
           loop (i + 1)
         in
         loop 1));
  Scheduler.set_crash_at sched (55_000.0 +. float_of_int (seed * 8_111));
  (match Scheduler.run sched with
  | Scheduler.Crash_interrupt _ -> ()
  | Scheduler.Completed -> Alcotest.fail "expected crash");
  Memsys.crash mem;
  let rep = Respct.Recovery.run ~layout:(Respct.Runtime.layout rt) mem in
  match Hashtbl.find_opt snapshots rep.Respct.Recovery.failed_epoch with
  | None -> None
  | Some snap ->
      Some (snap, Pds.Queue_respct.persisted_contents mem (Option.get !queue))

let test_queue_crash_recovery () =
  let checked = ref 0 in
  for seed = 1 to 6 do
    match crash_trial_queue seed with
    | None -> ()
    | Some (snap, recovered) ->
        incr checked;
        Alcotest.(check (list int))
          (Printf.sprintf "queue contents (seed %d)" seed)
          snap recovered
  done;
  Alcotest.(check bool) "at least one trial checked" true (!checked > 0)

(* ------------------------------------------------------------------ *)
(* Backend-generic oracle walk ([bindings_of]) over a Filemem image.

   [persisted_bindings] ties the walk to Memsys; the raw walker must
   give the same answer when the durable medium is a file image, read
   through [Filemem.persisted] after a power cut. *)

let filemem_world seed path =
  let cfg =
    {
      Filemem.default_config with
      Filemem.nvm_words = 1 lsl 16;
      Filemem.dram_words = 1 lsl 12;
      Filemem.evict_rate = 0.0;
      Filemem.seed;
    }
  in
  let meta =
    {
      Filemem.max_threads = 2;
      Filemem.registry_per_slot = 1 lsl 12;
      Filemem.integrity = true;
    }
  in
  let fm = Filemem.create ~meta cfg ~path in
  let sched = Scheduler.create ~seed () in
  let env = Env.make_backend (Filemem.backend fm) sched in
  (fm, sched, env)

let test_filemem_oracle_walk () =
  let path = Filename.temp_file "pds-walk" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fm, sched, env = filemem_world 7 path in
      let rt =
        Respct.Runtime.create
          ~cfg:
            {
              rt_cfg with
              Respct.Runtime.max_threads = 2;
              registry_per_slot = 1 lsl 12;
              integrity = true;
            }
          env
      in
      let model = Hashtbl.create 64 in
      let sealed = ref (-1) in
      let map = ref None in
      ignore
        (Scheduler.spawn ~name:"walk-cp" sched (fun () ->
             while Option.is_none !map do
               Scheduler.sleep sched 500.0
             done;
             (* the worker deregisters when it finishes, so this checkpoint
                quiesces trivially and seals the final contents *)
             Respct.Runtime.run_checkpoint rt ~on_flushed:(fun e ->
                 sealed := e);
             Respct.Runtime.stop rt));
      ignore
        (Respct.Runtime.spawn rt ~slot:0 (fun _ctx ->
             let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets:32 in
             let rng = Rng.create 99 in
             for i = 1 to 400 do
               let key = Rng.int rng 96 in
               (if Rng.int rng 4 = 0 then begin
                  ignore (Pds.Hashmap_respct.remove m ~slot:0 ~key);
                  Hashtbl.remove model key
                end
                else begin
                  ignore (Pds.Hashmap_respct.insert m ~slot:0 ~key ~value:i);
                  Hashtbl.replace model key i
                end);
               Respct.Runtime.rp rt ~slot:0 1
             done;
             map := Some m));
      (match Scheduler.run sched with
      | Scheduler.Completed -> ()
      | Scheduler.Crash_interrupt _ -> Alcotest.fail "unexpected crash");
      Alcotest.(check bool) "a checkpoint sealed" true (!sealed >= 1);
      let m = Option.get !map in
      (* power cut: only the durable image survives *)
      Filemem.crash fm;
      let v =
        Respct.Recovery.run_verified_backend
          ~layout:(Respct.Runtime.layout rt)
          (Filemem.backend fm)
      in
      Alcotest.(check bool)
        "recovered exactly" true
        (Respct.Recovery.exact_image v.Respct.Recovery.verdict);
      let walked =
        Pds.Hashmap_respct.bindings_of
          ~read:(Filemem.persisted fm)
          ~line_words:(Filemem.config fm).Filemem.line_words
          ~fuel:(1 lsl 16)
          ~heads:(Pds.Hashmap_respct.heads m)
          ~buckets:(Pds.Hashmap_respct.buckets m)
      in
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      Alcotest.(check (list (pair int int)))
        "file-image walk equals the model" expected walked;
      (* the fuel bound must hold against adversarial images *)
      Alcotest.check_raises "cyclic-chain fuel bound"
        (Failure "persisted bucket chain is cyclic") (fun () ->
          ignore
            (Pds.Hashmap_respct.bindings_of
               ~read:(fun _ -> 8)
               ~line_words:(Filemem.config fm).Filemem.line_words ~fuel:4
               ~heads:(Pds.Hashmap_respct.heads m)
               ~buckets:1));
      Filemem.close fm)

(* ------------------------------------------------------------------ *)
(* Bump allocator *)

let test_bump_reuse () =
  let _mem, sched, env = world () in
  in_thread sched (fun () ->
      let bump = Pds.Bump.create env ~base:8 ~limit:4096 in
      let a = Pds.Bump.alloc bump ~words:4 in
      Pds.Bump.free bump a ~words:4;
      Alcotest.(check int) "transient free list reuses immediately" a
        (Pds.Bump.alloc bump ~words:4);
      Alcotest.check_raises "oom" (Failure "Bump.alloc: out of memory")
        (fun () -> ignore (Pds.Bump.alloc bump ~words:100_000)))

let () =
  Alcotest.run "pds"
    [
      ( "transient",
        [
          Alcotest.test_case "hashmap vs model" `Quick test_transient_map_model;
          Alcotest.test_case "queue FIFO vs model" `Quick
            test_transient_queue_fifo;
          Alcotest.test_case "bump allocator" `Quick test_bump_reuse;
        ] );
      ( "respct",
        [
          Alcotest.test_case "hashmap vs model under checkpoints" `Quick
            test_respct_map_model;
          Alcotest.test_case "queue FIFO + node reuse" `Quick
            test_respct_queue_fifo_and_reuse;
          Alcotest.test_case "search allocation bounded" `Quick
            test_respct_search_allocation;
        ] );
      ( "crash-consistency",
        [
          Alcotest.test_case "map recovers last checkpoint (6 seeds)" `Quick
            test_map_crash_recovery;
          Alcotest.test_case "queue recovers last checkpoint (6 seeds)" `Quick
            test_queue_crash_recovery;
        ] );
      ( "oracle-walk",
        [
          Alcotest.test_case "bindings_of over a Filemem image" `Quick
            test_filemem_oracle_walk;
        ] );
    ]
