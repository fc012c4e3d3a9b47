(* Tests for the baseline persistence systems: functional correctness of
   every map and queue against model oracles (driven through the harness
   builders so the full construction path is covered), plus unit tests of
   the failure-atomic section machinery and the epoch gate. *)

open Simnvm
open Simsched

let small_params threads =
  {
    Harness.Systems.default_params with
    Harness.Systems.max_threads = threads + 1;
    period_ns = 50_000.0;
    buckets = 64;
    nvm_words = 1 lsl 19;
    dram_words = 1 lsl 18;
    registry_per_slot = 1 lsl 14;
  }

(* Drive a map build through random ops on one simulated thread, checking
   against a Hashtbl model. *)
let check_map kind =
  let p = small_params 1 in
  let sched, _env, _rt, build = Harness.Systems.map_system p kind in
  let failures = ref [] in
  ignore
    (Scheduler.spawn sched (fun () ->
         let ops, sys = build () in
         sys.Pds.Ops.sys_register ~slot:0;
         let model = Hashtbl.create 64 in
         let rng = Rng.create 3 in
         for i = 1 to 2000 do
           (match Gen_common.uniform_map_op rng ~key_range:150 ~value:i with
            | Gen_common.Insert (key, value) ->
                let fresh = ops.Pds.Ops.insert ~slot:0 ~key ~value in
                if fresh = Hashtbl.mem model key then
                  failures := `Insert (i, key) :: !failures;
                Hashtbl.replace model key value
            | Gen_common.Remove key ->
                let removed = ops.Pds.Ops.remove ~slot:0 ~key in
                if removed <> Hashtbl.mem model key then
                  failures := `Remove (i, key) :: !failures;
                Hashtbl.remove model key
            | Gen_common.Search key ->
                if
                  ops.Pds.Ops.search ~slot:0 ~key <> Hashtbl.find_opt model key
                then failures := `Search (i, key) :: !failures);
           ops.Pds.Ops.map_rp ~slot:0 ~id:1
         done;
         sys.Pds.Ops.sys_deregister ~slot:0;
         sys.Pds.Ops.sys_stop ()));
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  Alcotest.(check int)
    (Harness.Systems.name_of kind ^ " model mismatches")
    0
    (List.length !failures)

let check_queue kind =
  let p = small_params 1 in
  let sched, _env, _rt, build = Harness.Systems.queue_system p kind in
  let failures = ref 0 in
  ignore
    (Scheduler.spawn sched (fun () ->
         let ops, sys = build () in
         sys.Pds.Ops.sys_register ~slot:0;
         let model = Queue.create () in
         let rng = Rng.create 8 in
         for i = 1 to 2000 do
           (match Gen_common.uniform_queue_op rng ~value:i with
            | Gen_common.Enqueue v ->
                ops.Pds.Ops.enqueue ~slot:0 v;
                Queue.push v model
            | Gen_common.Dequeue ->
                let expected =
                  if Queue.is_empty model then None else Some (Queue.pop model)
                in
                if ops.Pds.Ops.dequeue ~slot:0 <> expected then incr failures);
           ops.Pds.Ops.queue_rp ~slot:0 ~id:1
         done;
         sys.Pds.Ops.sys_deregister ~slot:0;
         sys.Pds.Ops.sys_stop ()));
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  Alcotest.(check int)
    (Harness.Systems.name_of kind ^ " FIFO mismatches")
    0 !failures

let map_tests =
  List.map
    (fun kind ->
      Alcotest.test_case (Harness.Systems.name_of kind) `Quick (fun () ->
          check_map kind))
    Harness.Systems.map_kinds

let queue_tests =
  List.map
    (fun kind ->
      Alcotest.test_case (Harness.Systems.name_of kind) `Quick (fun () ->
          check_queue kind))
    Harness.Systems.queue_kinds

(* ------------------------------------------------------------------ *)
(* Fatomic unit tests *)

let fatomic_world policy =
  let mem = Memsys.create { Memsys.default_config with Memsys.nvm_words = 1 lsl 16 } in
  let sched = Scheduler.create () in
  let env = Env.make mem sched in
  let fa =
    Baselines.Fatomic.create env ~policy ~max_threads:2 ~log_base:(1 lsl 15)
      ~log_words_per_slot:1024
  in
  (mem, sched, env, fa)

let test_clobber_logs_only_war () =
  let mem, sched, _env, fa = fatomic_world Baselines.Fatomic.Clobber in
  ignore mem;
  ignore
    (Scheduler.spawn sched (fun () ->
         (* write-only op: no WAR, nothing logged *)
         Baselines.Fatomic.with_op fa ~slot:0 (fun () ->
             Baselines.Fatomic.intercepted_store fa ~slot:0 100 1);
         Alcotest.(check int) "no WAR yet" 0 (Baselines.Fatomic.stats_logged fa);
         (* read-then-write: one WAR log entry *)
         Baselines.Fatomic.with_op fa ~slot:0 (fun () ->
             let v = Baselines.Fatomic.intercepted_load fa ~slot:0 100 in
             Baselines.Fatomic.intercepted_store fa ~slot:0 100 (v + 1);
             (* second store to the same var: not re-logged *)
             Baselines.Fatomic.intercepted_store fa ~slot:0 100 (v + 2));
         Alcotest.(check int) "one WAR entry" 1 (Baselines.Fatomic.stats_logged fa)));
  ignore (Scheduler.run sched)

let test_fatomic_commit_flushes_write_set () =
  let mem, sched, _env, fa = fatomic_world Baselines.Fatomic.Quadra in
  ignore
    (Scheduler.spawn sched (fun () ->
         Baselines.Fatomic.with_op fa ~slot:0 (fun () ->
             Baselines.Fatomic.intercepted_store fa ~slot:0 64 7;
             Baselines.Fatomic.intercepted_store fa ~slot:0 65 8;
             (* same line: one flush *)
             Baselines.Fatomic.intercepted_store fa ~slot:0 256 9)));
  ignore (Scheduler.run sched);
  Alcotest.(check int) "two lines flushed" 2
    (Baselines.Fatomic.stats_flushed_lines fa);
  (* durable linearizability: committed values are in NVMM *)
  Alcotest.(check int) "persisted" 8 (Memsys.persisted mem 65);
  Alcotest.(check int) "persisted" 9 (Memsys.persisted mem 256)

let test_readonly_op_commits_free () =
  let _mem, sched, env, fa = fatomic_world Baselines.Fatomic.Clobber in
  ignore
    (Scheduler.spawn sched (fun () ->
         (* warm the line so the measurement sees only the op protocol *)
         ignore (Baselines.Fatomic.intercepted_load fa ~slot:0 100);
         Baselines.Fatomic.commit fa ~slot:0;
         let t0 = Scheduler.now (Env.sched env) in
         Baselines.Fatomic.with_op fa ~slot:0 (fun () ->
             ignore (Baselines.Fatomic.intercepted_load fa ~slot:0 100));
         let cost = Scheduler.now (Env.sched env) -. t0 in
         (* no pwb/psync on the read path: well under a flush+fence *)
         Alcotest.(check bool) "cheap read op" true (cost < 150.0)));
  ignore (Scheduler.run sched)

(* ------------------------------------------------------------------ *)
(* Epoch gate *)

let test_epoch_gate_quiesces () =
  let sched = Scheduler.create () in
  let gate = Baselines.Epoch_gate.create sched ~max_threads:4 in
  let in_epoch = ref false in
  let violations = ref 0 in
  Baselines.Epoch_gate.start gate ~period_ns:20_000.0 (fun () ->
      in_epoch := true;
      Scheduler.charge sched 2_000.0;
      in_epoch := false);
  let done_count = ref 0 in
  for w = 0 to 3 do
    ignore
      (Scheduler.spawn sched (fun () ->
           Baselines.Epoch_gate.register gate ~slot:w;
           for _ = 1 to 2000 do
             if !in_epoch then incr violations;
             Scheduler.charge sched 50.0;
             Scheduler.poll sched;
             Baselines.Epoch_gate.pause_point gate ~slot:w
           done;
           Baselines.Epoch_gate.deregister gate ~slot:w;
           incr done_count;
           if !done_count = 4 then Baselines.Epoch_gate.stop gate))
  done;
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  Alcotest.(check int) "no worker ran inside an epoch body" 0 !violations;
  Alcotest.(check bool) "epochs happened" true
    (Baselines.Epoch_gate.epochs gate >= 3)

let test_epoch_gate_allow_prevent () =
  (* A thread parked in allow-state must not block the epoch. *)
  let sched = Scheduler.create () in
  let gate = Baselines.Epoch_gate.create sched ~max_threads:2 in
  Baselines.Epoch_gate.start gate ~period_ns:10_000.0 (fun () -> ());
  ignore
    (Scheduler.spawn sched (fun () ->
         Baselines.Epoch_gate.register gate ~slot:0;
         Baselines.Epoch_gate.allow gate ~slot:0;
         Scheduler.sleep sched 50_000.0 (* blocked across several epochs *);
         Baselines.Epoch_gate.prevent gate ~slot:0;
         Baselines.Epoch_gate.deregister gate ~slot:0;
         Baselines.Epoch_gate.stop gate));
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  Alcotest.(check bool) "epochs proceeded" true
    (Baselines.Epoch_gate.epochs gate >= 3)

let () =
  Alcotest.run "baselines"
    [
      ("maps vs model", map_tests);
      ("queues vs model", queue_tests);
      ( "fatomic",
        [
          Alcotest.test_case "Clobber logs only WAR vars" `Quick
            test_clobber_logs_only_war;
          Alcotest.test_case "commit flushes the write set" `Quick
            test_fatomic_commit_flushes_write_set;
          Alcotest.test_case "read-only ops commit free" `Quick
            test_readonly_op_commits_free;
        ] );
      ( "epoch gate",
        [
          Alcotest.test_case "quiescence during epoch body" `Quick
            test_epoch_gate_quiesces;
          Alcotest.test_case "allow/prevent around blocking" `Quick
            test_epoch_gate_allow_prevent;
        ] );
    ]
