(* Tests for the ResPCT core: InCLL cells, the persistent heap, the
   checkpoint runtime, crash recovery, and the end-to-end buffered durable
   linearizability property under random crash injection. *)

open Simnvm
open Simsched
open Respct

let mem_cfg ?(evict_rate = 0.0) ?(pcso = true) () =
  {
    Memsys.default_config with
    Memsys.evict_rate = evict_rate;
    pcso;
    sets = 256;
    ways = 4;
    nvm_words = 1 lsl 18;
    dram_words = 1 lsl 14;
  }

let rt_cfg ?(period_ns = 50_000.0) ?(mode = Runtime.Full) ?(flusher_pool = 4)
    ?(pipeline = false) () =
  {
    Runtime.period_ns;
    mode;
    flusher_pool;
    max_threads = 16;
    registry_per_slot = 4096;
    integrity = false;
    pipeline;
  }

(* Build a fresh world: memory, scheduler, env, runtime. *)
let fresh ?(seed = 1) ?evict_rate ?pcso ?(cfg = rt_cfg ()) () =
  let mem = Memsys.create { (mem_cfg ?evict_rate ?pcso ()) with Memsys.seed = seed } in
  let sched = Scheduler.create ~seed () in
  let env = Env.make mem sched in
  let rt = Runtime.create ~cfg env in
  (mem, sched, env, rt)

(* Run a single simulated thread body under the runtime (no coordinator). *)
let in_thread rt body =
  let tid = Runtime.spawn rt ~slot:0 (fun ctx -> body ctx) in
  ignore tid;
  match Scheduler.run (Env.sched (Runtime.env rt)) with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "unexpected crash"

(* ------------------------------------------------------------------ *)
(* InCLL *)

let test_incll_init_read_update () =
  let _mem, _sched, _env, rt = fresh () in
  in_thread rt (fun ctx ->
      let heap = Runtime.heap rt in
      let cell = Heap.alloc_incll ctx heap in
      Incll.init ctx cell 5;
      Alcotest.(check int) "init" 5 (Incll.read ctx cell);
      Incll.update ctx cell 9;
      Alcotest.(check int) "updated" 9 (Incll.read ctx cell);
      Alcotest.(check int) "backup holds old" 5
        (Simsched.Env.load ctx.Pctx.env (Incll.backup cell)))

let test_incll_logs_once_per_epoch () =
  let _mem, _sched, _env, rt = fresh () in
  in_thread rt (fun ctx ->
      let cell = Runtime.alloc_incll rt ~slot:0 10 in
      (* Epoch 0: the first update logs 10; the second must not relog. *)
      Incll.update ctx cell 11;
      Incll.update ctx cell 12;
      Alcotest.(check int) "backup is pre-epoch value" 10
        (Simsched.Env.load ctx.Pctx.env (Incll.backup cell)))

(* Note: alloc_incll runs init in the same epoch, so backup = initial value;
   the later updates in the same epoch skip logging because epoch_id already
   matches. *)

let test_incll_cells_line_resident () =
  let _mem, _sched, env, rt = fresh () in
  in_thread rt (fun ctx ->
      let heap = Runtime.heap rt in
      let lw = Env.line_words env in
      for _ = 1 to 100 do
        let cell = Heap.alloc_incll ctx heap in
        Alcotest.(check bool) "single line" true
          (Addr.same_line ~line_words:lw cell (cell + Incll.words - 1))
      done)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_free_reuse_after_checkpoint () =
  let _mem, _sched, _env, rt = fresh () in
  in_thread rt (fun ctx ->
      let heap = Runtime.heap rt in
      let a = Heap.alloc ctx heap ~words:4 in
      Heap.free ctx heap a ~words:4;
      (* Same epoch: the block must NOT be reused. *)
      let b = Heap.alloc ctx heap ~words:4 in
      Alcotest.(check bool) "no same-epoch reuse" true (a <> b);
      (* After a checkpoint the block becomes reusable. *)
      Runtime.rp rt ~slot:0 1;
      Heap.advance_epoch heap;
      let c = Heap.alloc ctx heap ~words:4 in
      Alcotest.(check int) "reused" a c)

let test_heap_out_of_memory () =
  let _mem, _sched, _env, rt = fresh () in
  in_thread rt (fun ctx ->
      let heap = Runtime.heap rt in
      Alcotest.check_raises "oom" (Failure "Heap.alloc: out of memory")
        (fun () -> ignore (Heap.alloc ctx heap ~words:(1 lsl 20))))

let test_heap_cell_packing () =
  let _mem, _sched, env, rt = fresh () in
  in_thread rt (fun _ctx ->
      let base = Runtime.alloc_incll_array rt ~slot:0 10 ~init:7 in
      let lw = Env.line_words env in
      for i = 0 to 9 do
        let cell = Heap.cell_at env base i in
        Alcotest.(check bool) "line resident" true
          (Addr.same_line ~line_words:lw cell (cell + Incll.words - 1));
        Alcotest.(check int) "initialised" 7
          (Runtime.read rt ~slot:0 cell)
      done;
      (* Distinct cells never overlap. *)
      for i = 0 to 8 do
        let a = Heap.cell_at env base i and b = Heap.cell_at env base (i + 1) in
        Alcotest.(check bool) "disjoint" true (b - a >= Incll.words)
      done);
  (* The stepping walk visits exactly the cells [cell_at_words] packs. *)
  List.iter
    (fun line_words ->
      List.iter
        (fun count ->
          let seen = ref [] in
          Heap.iter_cells ~line_words 640 count (fun c -> seen := c :: !seen);
          Alcotest.(check (list int))
            (Printf.sprintf "iter_cells, %d-word lines, %d cells" line_words
               count)
            (List.init count (Heap.cell_at_words ~line_words 640))
            (List.rev !seen))
        [ 0; 1; 2; 5; 17 ])
    [ 6; 8; 9; 16 ];
  (* The multiply-and-shift last cell is [cell_at_words]'s for every count
     a registry entry can hold. *)
  List.iter
    (fun line_words ->
      let last = Heap.range_last_cell ~line_words in
      for count = 1 to Layout.max_entry_count do
        let want = Heap.cell_at_words ~line_words 640 (count - 1) in
        if last 640 count <> want then
          Alcotest.failf "range_last_cell, %d-word lines, count %d: %d, want %d"
            line_words count (last 640 count) want
      done)
    [ 6; 8; 9; 16; 64; 3 * 1000 ]

(* ------------------------------------------------------------------ *)
(* Runtime basics *)

let test_epoch_starts_at_zero_persisted () =
  let mem, _sched, _env, rt = fresh () in
  let layout = Runtime.layout rt in
  Alcotest.(check int) "epoch 0 persisted" 0
    (Memsys.persisted mem layout.Layout.epoch_addr)

let test_checkpoint_persists_and_increments_epoch () =
  let mem, sched, _env, rt = fresh () in
  let layout = Runtime.layout rt in
  let cell = ref 0 in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         cell := Runtime.alloc_incll rt ~slot:0 41;
         Runtime.update rt ~slot:0 !cell 42;
         Runtime.rp rt ~slot:0 1;
         (* Checkpoint runs while we are blocked at the RP. *)
         Runtime.rp rt ~slot:0 2));
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 10_000.0;
         Runtime.run_checkpoint rt));
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  Alcotest.(check int) "epoch persisted" 1
    (Memsys.persisted mem layout.Layout.epoch_addr);
  Alcotest.(check int) "value persisted" 42
    (Memsys.persisted mem (Incll.record !cell));
  let st = Runtime.stats rt in
  Alcotest.(check int) "one checkpoint" 1 st.Runtime.checkpoints;
  Alcotest.(check bool) "flushed something" true (st.Runtime.flushed_addrs > 0)

let test_checkpoint_waits_for_all_threads () =
  (* A checkpoint requested at t=10us must not complete before the slowest
     thread reaches its RP at ~100us. *)
  let _mem, sched, _env, rt = fresh () in
  let cp_end = ref 0.0 in
  for slot = 0 to 2 do
    let work = float_of_int (slot + 1) *. 33_000.0 in
    ignore
      (Runtime.spawn rt ~slot (fun _ctx ->
           Scheduler.sleep sched work;
           Runtime.rp rt ~slot 1))
  done;
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 10_000.0;
         Runtime.run_checkpoint rt;
         cp_end := Scheduler.now sched));
  ignore (Scheduler.run sched);
  Alcotest.(check bool) "waited for slowest RP" true (!cp_end >= 99_000.0)

let test_rp_without_pending_checkpoint_is_cheap () =
  let _mem, sched, _env, rt = fresh () in
  let duration = ref 0.0 in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         let t0 = Scheduler.now sched in
         for i = 1 to 100 do
           Runtime.rp rt ~slot:0 i
         done;
         duration := Scheduler.now sched -. t0));
  ignore (Scheduler.run sched);
  (* 100 RPs, each a handful of cached accesses: well under 10us. *)
  Alcotest.(check bool) "cheap" true (!duration < 10_000.0)

let test_rp_without_pending_checkpoint_allocates_nothing () =
  let _mem, sched, _env, rt = fresh () in
  let words = ref nan in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         (* The epoch's first RP logs the RP-id cell and tracks it. *)
         Runtime.rp rt ~slot:0 0;
         let w0 = Gc.minor_words () in
         for i = 1 to 10_000 do
           Runtime.rp rt ~slot:0 i
         done;
         words := Gc.minor_words () -. w0));
  ignore (Scheduler.run sched);
  (* The slot's context is built with the runtime, not per call. *)
  Alcotest.check (Alcotest.float 0.0) "words allocated by 10 000 RPs" 0.0
    !words

(* [start ~on_flushed] is the periodic coordinator every world runs: the
   hook sees epochs 1, 2, ..., k in order, k the checkpoints the run
   completed, and a [stop] from the last worker ends the world, classic
   or pipelined, with no helper fiber. A world that did not end by itself
   runs into the crash bound. (Here no checkpoint is in progress at the
   [stop]; one that is never seals in pipeline mode, see [Runtime.stop].) *)
let test_periodic_coordinator_runs () =
  List.iter
    (fun pipeline ->
      let name = if pipeline then "pipelined" else "classic" in
      let _mem, sched, _env, rt =
        fresh ~cfg:(rt_cfg ~period_ns:20_000.0 ~pipeline ()) ()
      in
      let seen = ref [] in
      Runtime.start rt ~on_flushed:(fun e -> seen := e :: !seen);
      let live = ref 2 in
      for slot = 0 to 1 do
        ignore
          (Runtime.spawn rt ~slot (fun _ctx ->
               let cell = Runtime.alloc_incll rt ~slot 0 in
               for i = 1 to 1000 do
                 Runtime.update rt ~slot cell i;
                 Env.compute (Runtime.env rt) 100.0;
                 Runtime.rp rt ~slot 1
               done;
               decr live;
               if !live = 0 then Runtime.stop rt))
      done;
      Scheduler.set_crash_at sched 10.0e6;
      (match Scheduler.run sched with
      | Scheduler.Completed -> ()
      | Scheduler.Crash_interrupt _ ->
          Alcotest.failf "%s: the world did not end after stop" name);
      let st = Runtime.stats rt in
      Alcotest.(check bool)
        (Printf.sprintf "%s: several checkpoints (%d)" name
           st.Runtime.checkpoints)
        true
        (st.Runtime.checkpoints >= 5);
      Alcotest.(check (list int))
        (name ^ ": the hook saw epochs 1..checkpoints in order")
        (List.init st.Runtime.checkpoints (fun i -> i + 1))
        (List.rev !seen);
      let eff = Runtime.mean_effective_period rt in
      Alcotest.(check bool)
        (Printf.sprintf "%s: effective period near nominal (%.0f)" name eff)
        true
        (eff >= 19_000.0 && eff <= 40_000.0))
    [ false; true ]

let test_deregistered_thread_does_not_block_checkpoint () =
  let _mem, sched, _env, rt = fresh () in
  ignore (Runtime.spawn rt ~slot:0 (fun _ctx -> Env.compute (Runtime.env rt) 100.0));
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 50_000.0;
         (* Worker long gone: checkpoint must still complete. *)
         Runtime.run_checkpoint rt));
  match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash"

let test_registry_full () =
  let cfg = { (rt_cfg ()) with Runtime.registry_per_slot = 4 } in
  let _mem, _sched, _env, rt = fresh ~cfg () in
  in_thread rt (fun _ctx ->
      Alcotest.check_raises "full"
        (Failure "Runtime: InCLL registry full (slot 0, cap 4)") (fun () ->
          for i = 0 to 10 do
            ignore (Runtime.alloc_incll rt ~slot:0 i)
          done))

(* ------------------------------------------------------------------ *)
(* Crash + recovery *)

let test_crash_before_first_checkpoint_recovers_initial () =
  let mem, sched, _env, rt = fresh ~evict_rate:0.3 () in
  let layout = Runtime.layout rt in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         let cell = Runtime.alloc_incll rt ~slot:0 1 in
         let rec loop i =
           Runtime.update rt ~slot:0 cell i;
           Runtime.rp rt ~slot:0 1;
           loop (i + 1)
         in
         loop 0));
  Scheduler.set_crash_at sched 30_000.0;
  (match Scheduler.run sched with
  | Scheduler.Crash_interrupt _ -> ()
  | Scheduler.Completed -> Alcotest.fail "expected crash");
  Memsys.crash mem;
  let rep = Recovery.run ~threads:2 ~layout mem in
  Alcotest.(check int) "failed epoch" 0 rep.Recovery.failed_epoch;
  (* Registry length and heap cursor rolled back to the initial state. *)
  Alcotest.(check int) "registry empty" 0
    (Memsys.persisted mem
       (Incll.record (Layout.reglen_cell layout ~line_words:8 0)));
  Alcotest.(check int) "heap cursor at base" layout.Layout.heap_base
    (Memsys.persisted mem (Incll.record layout.Layout.cursor_cell))

(* The canonical crash trial: a worker updates [n_cells] InCLL counters and
   occasionally allocates; a manual coordinator checkpoints periodically and
   snapshots the persistent state inside the quiescent window of each
   checkpoint (via the [on_flushed] hook: after the flush, before the epoch
   increment — exactly the state recovery restores for a crash in the next
   epoch). After a crash at [crash_ns] + recovery, the NVMM image must equal
   the snapshot recorded for [failed_epoch]. [crashed_world] runs the
   trial to its crash and returns the memory, its layout, [observe] and
   the snapshots; [crash_trial] recovers it. *)
let crashed_world ?(pcso = true) ?(verified = false) ~seed ~crash_ns () =
  let cfg =
    { (rt_cfg ~period_ns:20_000.0 ()) with Runtime.integrity = verified }
  in
  let mem, sched, _env, rt = fresh ~seed ~evict_rate:0.2 ~pcso ~cfg () in
  let layout = Runtime.layout rt in
  let n_cells = 8 in
  let cells = ref [||] in
  let snapshots = Hashtbl.create 8 in
  let observe () =
    ( Array.map (fun c -> Memsys.persisted mem (Incll.record c)) !cells,
      Memsys.persisted mem (Incll.record layout.Layout.cursor_cell),
      Memsys.persisted mem
        (Incll.record (Layout.reglen_cell layout ~line_words:8 0)) )
  in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         let base = Runtime.alloc_incll_array rt ~slot:0 n_cells ~init:0 in
         cells :=
           Array.init n_cells (fun i -> Heap.cell_at (Runtime.env rt) base i);
         let rng = Rng.create (seed * 7 + 1) in
         let rec loop i =
           let c = (!cells).(Rng.int rng n_cells) in
           Runtime.update rt ~slot:0 c i;
           if Rng.int rng 50 = 0 then
             ignore (Runtime.alloc_incll rt ~slot:0 i);
           if Rng.int rng 4 = 0 then Runtime.rp rt ~slot:0 1;
           loop (i + 1)
         in
         loop 1));
  Runtime.start rt ~on_flushed:(fun next_epoch ->
      if Array.length !cells > 0 then
        Hashtbl.replace snapshots next_epoch (observe ()));
  Scheduler.set_crash_at sched crash_ns;
  (match Scheduler.run sched with
  | Scheduler.Crash_interrupt _ -> ()
  | Scheduler.Completed -> Alcotest.fail "expected crash");
  Memsys.crash mem;
  (mem, layout, observe, snapshots)

let crash_trial ?pcso ?(verified = false) ~seed ~crash_ns () =
  let mem, layout, observe, snapshots =
    crashed_world ?pcso ~verified ~seed ~crash_ns ()
  in
  let rep =
    if verified then begin
      (* Perfect media: the verified scan must prove the image exact. *)
      let v = Recovery.run_verified ~layout mem in
      if not (Recovery.exact_image v.Recovery.verdict) then
        Alcotest.failf "perfect media judged %a" Recovery.pp_verdict
          v.Recovery.verdict;
      v.Recovery.vreport
    end
    else Recovery.run ~threads:2 ~layout mem
  in
  match Hashtbl.find_opt snapshots rep.Recovery.failed_epoch with
  | None -> (None, None, rep) (* crash in epoch 0: covered elsewhere *)
  | Some snap -> (Some snap, Some (observe ()), rep)

let check_trial ~seed ~crash_ns =
  match crash_trial ~seed ~crash_ns () with
  | None, _, _ -> () (* no checkpoint completed: covered elsewhere *)
  | Some (vals, cur, reg), Some (vals', cur', reg'), _rep ->
      Alcotest.(check (array int))
        (Printf.sprintf "values (seed %d)" seed)
        vals vals';
      Alcotest.(check int) "cursor" cur cur';
      Alcotest.(check int) "registry length" reg reg'
  | Some _, None, _ -> Alcotest.fail "impossible"

let test_crash_recovery_restores_last_checkpoint () =
  List.iter
    (fun seed ->
      check_trial ~seed ~crash_ns:(30_000.0 +. float_of_int (seed * 13_777)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_recovery_idempotent () =
  let mem, sched, _env, rt = fresh ~seed:3 ~evict_rate:0.3 () in
  let layout = Runtime.layout rt in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         let cell = Runtime.alloc_incll rt ~slot:0 0 in
         let rec loop i =
           Runtime.update rt ~slot:0 cell i;
           Runtime.rp rt ~slot:0 1;
           loop (i + 1)
         in
         loop 1));
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 20_000.0;
         Runtime.run_checkpoint rt;
         Scheduler.sleep sched 1_000_000.0));
  Scheduler.set_crash_at sched 45_000.0;
  ignore (Scheduler.run sched);
  Memsys.crash mem;
  let _ = Recovery.run ~layout mem in
  let image1 = Array.init 4096 (fun a -> Memsys.persisted mem a) in
  let _ = Recovery.run ~layout mem in
  let image2 = Array.init 4096 (fun a -> Memsys.persisted mem a) in
  Alcotest.(check (array int)) "idempotent" image1 image2

let test_rp_ids_recovered () =
  let mem, sched, _env, rt = fresh () in
  let layout = Runtime.layout rt in
  for slot = 0 to 2 do
    ignore
      (Runtime.spawn rt ~slot (fun _ctx ->
           let rec loop () =
             Runtime.rp rt ~slot (100 + slot);
             Env.compute (Runtime.env rt) 500.0;
             loop ()
           in
           loop ()))
  done;
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 20_000.0;
         Runtime.run_checkpoint rt;
         Scheduler.sleep sched 1_000_000.0));
  Scheduler.set_crash_at sched 50_000.0;
  ignore (Scheduler.run sched);
  Memsys.crash mem;
  let rep = Recovery.run ~layout mem in
  List.iter
    (fun (slot, id) ->
      Alcotest.(check int) (Printf.sprintf "slot %d" slot) (100 + slot) id)
    rep.Recovery.rp_ids

(* Restart after recovery, continue, crash again: exercises the reflush
   seeding (rolled-back cells must be flushed by the next checkpoint of the
   restarted run). *)
let test_restart_and_second_crash () =
  let cfg = rt_cfg () in
  let mem, sched, _env, rt = fresh ~seed:11 ~evict_rate:0.25 ~cfg () in
  let layout = Runtime.layout rt in
  let cell = ref 0 in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         cell := Runtime.alloc_incll rt ~slot:0 0;
         let rec loop i =
           Runtime.update rt ~slot:0 !cell i;
           Runtime.rp rt ~slot:0 1;
           loop (i + 1)
         in
         loop 1));
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 20_000.0;
         Runtime.run_checkpoint rt;
         Scheduler.sleep sched 1_000_000.0));
  Scheduler.set_crash_at sched 60_000.0;
  ignore (Scheduler.run sched);
  Memsys.crash mem;
  let rep = Recovery.run ~layout mem in
  let v_recovered = Memsys.persisted mem (Incll.record !cell) in
  (* ---- restarted run ---- *)
  let sched2 = Scheduler.create ~seed:12 () in
  let env2 = Env.make mem sched2 in
  let rt2 = Runtime.restart ~cfg ~reflush:rep.Recovery.rolled_back env2 in
  let vals_done = ref 0 in
  ignore
    (Runtime.spawn rt2 ~slot:0 (fun _ctx ->
         (* The slot table remembers our RP cell; continue the counter. *)
         let rec loop i =
           Runtime.update rt2 ~slot:0 !cell i;
           Runtime.rp rt2 ~slot:0 1;
           vals_done := i;
           loop (i + 1)
         in
         loop (v_recovered + 1)));
  let snap = ref (-1) in
  ignore
    (Scheduler.spawn ~name:"cp2" sched2 (fun () ->
         Scheduler.sleep sched2 20_000.0;
         Runtime.run_checkpoint rt2;
         snap := Memsys.persisted mem (Incll.record !cell);
         Scheduler.sleep sched2 1_000_000.0));
  Scheduler.set_crash_at sched2 50_000.0;
  ignore (Scheduler.run sched2);
  Memsys.crash mem;
  let _rep2 = Recovery.run ~layout mem in
  Alcotest.(check bool) "second run checkpointed progress" true (!snap > v_recovered);
  Alcotest.(check int) "recovered to second checkpoint" !snap
    (Memsys.persisted mem (Incll.record !cell))

(* Without PCSO (word-granular write-back ablation), the same trials must
   eventually violate recovery: demonstrates InCLL's reliance on same-line
   ordering. *)
let test_non_pcso_breaks_recovery () =
  let violations = ref 0 in
  for seed = 1 to 12 do
    match
      crash_trial ~pcso:false ~seed
        ~crash_ns:(30_000.0 +. float_of_int (seed * 13_777))
        ()
    with
    | Some (vals, cur, reg), Some (vals', cur', reg'), _ ->
        if vals <> vals' || cur <> cur' || reg <> reg' then incr violations
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "found %d violations" !violations)
    true (!violations > 0)

(* Under eADR the cache sits inside the persistent domain (paper §2.1):
   checkpoints still run — the epoch still advances and addresses are still
   gathered — but the flush phase must cost zero virtual time. *)
let test_eadr_checkpoint_flush_free () =
  let cfg = rt_cfg () in
  let mem =
    Memsys.create
      { (mem_cfg ()) with Memsys.eadr = true; latency = Latency.eadr_of Latency.default }
  in
  let sched = Scheduler.create ~seed:1 () in
  let env = Env.make mem sched in
  let rt = Runtime.create ~cfg env in
  let spans = Obs.Span.create () in
  Runtime.set_spans rt spans;
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         let cell = Runtime.alloc_incll rt ~slot:0 0 in
         let rec loop i =
           Runtime.update rt ~slot:0 cell i;
           Runtime.rp rt ~slot:0 1;
           loop (i + 1)
         in
         loop 1));
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 20_000.0;
         Runtime.run_checkpoint rt;
         Scheduler.sleep sched 1_000_000.0));
  Scheduler.set_crash_at sched 60_000.0;
  ignore (Scheduler.run sched);
  let s = Runtime.stats rt in
  Alcotest.(check bool) "checkpoint ran" true (s.Runtime.checkpoints >= 1);
  Alcotest.(check bool)
    "addresses gathered" true
    (s.Runtime.flushed_addrs > 0);
  Alcotest.check (Alcotest.float 1e-6) "flush costs nothing" 0.0 s.Runtime.flush_ns;
  Alcotest.check (Alcotest.float 1e-6)
    "flush span zero-width" 0.0
    (Obs.Span.total_ns spans "checkpoint.flush")

(* ------------------------------------------------------------------ *)
(* Integrity: checksum packing and the verified-recovery verdicts *)

let test_checksum_cell_seals () =
  (* [epoch_of] is the identity on every raw (non-integrity) epoch word,
     including the -1 bootstrap value. *)
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Printf.sprintf "epoch_of is the identity on %d" e)
        e (Checksum.epoch_of e))
    [ 0; 1; 42; 123_456_789; -1 ];
  let cell = 1536 and record = 55 and backup = 44 and epoch = 7 in
  let w = Checksum.seal ~record ~backup ~epoch ~cell in
  Alcotest.(check int) "epoch packed" epoch (Checksum.epoch_of w);
  Alcotest.(check bool)
    "log certified" true
    (Checksum.check_log ~word:w ~backup ~cell);
  Alcotest.(check bool)
    "rec certified" true
    (Checksum.check_rec ~word:w ~record ~cell);
  Alcotest.(check bool)
    "log rejects a wrong backup" false
    (Checksum.check_log ~word:w ~backup:(backup + 1) ~cell);
  Alcotest.(check bool)
    "rec rejects a wrong record" false
    (Checksum.check_rec ~word:w ~record:(record + 1) ~cell);
  Alcotest.(check bool)
    "seal is address-bound" false
    (Checksum.check_log ~word:w ~backup ~cell:(cell + Incll.words));
  (* [reseal_record] replaces only the record CRC. *)
  let w' = Checksum.reseal_record w ~record:99 ~cell in
  Alcotest.(check bool)
    "resealed record certified" true
    (Checksum.check_rec ~word:w' ~record:99 ~cell);
  Alcotest.(check bool)
    "log seal untouched by reseal" true
    (Checksum.check_log ~word:w' ~backup ~cell);
  Alcotest.(check int) "epoch untouched by reseal" epoch
    (Checksum.epoch_of w');
  (* [check_log_at] probes the seal under an explicit epoch. *)
  Alcotest.(check bool)
    "log_at its own epoch" true
    (Checksum.check_log_at ~word:w ~backup ~epoch ~cell);
  Alcotest.(check bool)
    "log_at another epoch" false
    (Checksum.check_log_at ~word:w ~backup ~epoch:(epoch + 1) ~cell)

let test_checksum_metadata_seals () =
  let addr = 0 in
  let w = Checksum.seal_epoch ~epoch:5 ~addr in
  Alcotest.(check int) "epoch readable through seal" 5 (Checksum.epoch_of w);
  Alcotest.(check bool)
    "sealed word certified" true
    (Checksum.check_epoch ~word:w ~addr);
  Alcotest.(check bool)
    "raw word rejected" false
    (Checksum.check_epoch ~word:5 ~addr);
  Alcotest.(check bool)
    "single bit flip detected" false
    (Checksum.check_epoch ~word:(w lxor (1 lsl 3)) ~addr);
  Alcotest.(check bool)
    "commit code binds the epoch" true
    (Checksum.commit ~epoch:3 ~addr:1 <> Checksum.commit ~epoch:4 ~addr:1);
  Alcotest.(check bool)
    "commit code binds the address" true
    (Checksum.commit ~epoch:3 ~addr:1 <> Checksum.commit ~epoch:3 ~addr:2);
  Alcotest.(check bool)
    "regsum binds entry and address" true
    (Checksum.regsum ~entry:17 ~addr:9 <> Checksum.regsum ~entry:18 ~addr:9
    && Checksum.regsum ~entry:17 ~addr:9 <> Checksum.regsum ~entry:17 ~addr:10)

(* The bytewise definitions the word-at-a-time CRCs must equal: every
   word serialised 8-byte little-endian and folded in one byte at a
   time, through a table built bit by bit. *)
let byte_table step = Array.init 256 (fun n -> step n)

let crc32_table =
  byte_table (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc16_table =
  byte_table (fun n ->
      let c = ref (n lsl 8) in
      for _ = 0 to 7 do
        c := if !c land 0x8000 <> 0 then (!c lsl 1) lxor 0x1021 else !c lsl 1;
        c := !c land 0xFFFF
      done;
      !c)

let bytewise byte init ws =
  List.fold_left
    (fun crc w ->
      let c = ref crc in
      for i = 0 to 7 do
        c := byte !c ((w lsr (i * 8)) land 0xFF)
      done;
      !c)
    init ws

let crc32_words ws =
  bytewise
    (fun crc b -> crc32_table.((crc lxor b) land 0xFF) lxor (crc lsr 8))
    0xFFFFFFFF ws
  lxor 0xFFFFFFFF

let crc16_words =
  bytewise
    (fun crc b ->
      crc16_table.(((crc lsr 8) lxor b) land 0xFF) lxor ((crc lsl 8) land 0xFFFF))
    0xFFFF

let prop_crcs_match_bytewise =
  let word =
    QCheck.make ~print:string_of_int
      QCheck.Gen.(
        frequency
          [ (1, oneofl [ 0; 1; -1; max_int; min_int ]); (6, int) ])
  in
  QCheck.Test.make ~name:"word-at-a-time CRCs equal the bytewise spec"
    ~count:2000 (QCheck.triple word word word) (fun (a, b, c) ->
      Checksum.crc32_2 a b = crc32_words [ a; b ]
      && Checksum.crc16_2 a b = crc16_words [ a; b ]
      && Checksum.crc16_3 a b c = crc16_words [ a; b; c ])

(* One counter, one checkpoint (epoch 0 -> 1), crash mid-epoch 1 with a
   deterministic cache (no evictions): the post-crash image has the cell
   quiescent under its epoch-0 seal and the metadata committed at epoch 1.
   The canvas for hand-planted damage. *)
let crash_world ~integrity () =
  let cfg = { (rt_cfg ()) with Runtime.integrity } in
  let mem, sched, _env, rt = fresh ~cfg () in
  let layout = Runtime.layout rt in
  let cell = ref 0 in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         cell := Runtime.alloc_incll rt ~slot:0 100;
         let rec loop i =
           Runtime.update rt ~slot:0 !cell i;
           Runtime.rp rt ~slot:0 1;
           loop (i + 1)
         in
         loop 1));
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 20_000.0;
         Runtime.run_checkpoint rt;
         Scheduler.sleep sched 1_000_000.0));
  Scheduler.set_crash_at sched 45_000.0;
  ignore (Scheduler.run sched);
  Memsys.crash mem;
  (mem, layout, !cell)

let check_verdict what expected got =
  let s v = Fmt.str "%a" Recovery.pp_verdict v in
  Alcotest.(check string) what (s expected) (s got)

let test_verified_verdict_taxonomy () =
  let mem, layout, cell = crash_world ~integrity:true () in
  let base = Memsys.snapshot mem in
  let reset () = Memsys.restore mem base in
  let verify () = Recovery.run_verified ~layout mem in
  (* Clean image: proven exact. *)
  let v = verify () in
  Alcotest.(check int) "failed epoch" 1 v.Recovery.vreport.Recovery.failed_epoch;
  check_verdict "clean image" Recovery.Clean v.Recovery.verdict;
  Alcotest.(check bool) "clean is exact" true
    (Recovery.exact_image v.Recovery.verdict);
  let rec0 = Memsys.persisted mem (Incll.record cell) in
  let bak0 = Memsys.persisted mem (Incll.backup cell) in
  (* Torn record on a quiescent cell: the certified backup is restored —
     one epoch stale, hence a salvage, never exact. *)
  reset ();
  Memsys.poke_persisted mem (Incll.record cell) (rec0 lxor 0xDEAD);
  let v = verify () in
  check_verdict "torn record"
    (Recovery.Salvaged [ Recovery.Torn_record { cell } ])
    v.Recovery.verdict;
  Alcotest.(check int) "backup restored" bak0
    (Memsys.persisted mem (Incll.record cell));
  (* Record and backup both torn: the undo log is unprovable, the cell is
     quarantined untouched. *)
  reset ();
  Memsys.poke_persisted mem (Incll.record cell) (rec0 lxor 0xBEEF);
  Memsys.poke_persisted mem (Incll.backup cell) (bak0 lxor 0xF00D);
  let v = verify () in
  check_verdict "torn log"
    (Recovery.Salvaged [ Recovery.Torn_log { cell } ])
    v.Recovery.verdict;
  Alcotest.(check int) "quarantined, not rewritten" (rec0 lxor 0xBEEF)
    (Memsys.persisted mem (Incll.record cell));
  (* A stray backup under a quiescent cell is dead weight (the legal
     backup-before-seal crash window looks exactly like this): clean. *)
  reset ();
  Memsys.poke_persisted mem (Incll.backup cell) (bak0 lxor 1);
  check_verdict "stray backup is benign" Recovery.Clean (verify ()).Recovery.verdict;
  (* Commit record disagreeing with the certified epoch word: rewritten
     from the seal, a proven repair. *)
  reset ();
  Memsys.poke_persisted mem layout.Layout.commit_epoch_addr 0;
  let v = verify () in
  check_verdict "commit repaired"
    (Recovery.Repaired [ Recovery.Commit_repaired { epoch = 1 } ])
    v.Recovery.verdict;
  Alcotest.(check bool) "repair is exact" true
    (Recovery.exact_image v.Recovery.verdict);
  Alcotest.(check int) "commit rewritten" 1
    (Memsys.persisted mem layout.Layout.commit_epoch_addr);
  (* Epoch word seal broken but commit record certified: restored
     best-effort (the pre-bump window is indistinguishable). *)
  reset ();
  Memsys.poke_persisted mem layout.Layout.epoch_addr 1;
  let v = verify () in
  check_verdict "epoch restored"
    (Recovery.Salvaged [ Recovery.Epoch_restored { epoch = 1 } ])
    v.Recovery.verdict;
  Alcotest.(check bool) "epoch word resealed" true
    (Checksum.check_epoch
       ~word:(Memsys.persisted mem layout.Layout.epoch_addr)
       ~addr:layout.Layout.epoch_addr);
  (* Neither the epoch word nor the commit record certifiable: fail stop. *)
  reset ();
  Memsys.poke_persisted mem layout.Layout.epoch_addr 1;
  Memsys.poke_persisted mem layout.Layout.commit_crc_addr 0;
  (match (verify ()).Recovery.verdict with
  | Recovery.Unrecoverable ds
    when List.exists
           (function Recovery.Commit_broken _ -> true | _ -> false)
           ds ->
      ()
  | d -> Alcotest.failf "expected Commit_broken, got %a" Recovery.pp_verdict d)

let test_verified_media_retry_and_scrub () =
  let mem, layout, cell = crash_world ~integrity:true () in
  let base = Memsys.snapshot mem in
  let lw = (Memsys.config mem).Memsys.line_words in
  let line = Incll.record cell / lw in
  (* Transient fault: retried with backoff, healed, still proven exact. *)
  Memsys.arm_transient_fault mem line;
  let v = Recovery.run_verified ~layout mem in
  Alcotest.(check bool) "retried" true (v.Recovery.read_retries > 0);
  Alcotest.(check bool) "exact after retry" true
    (Recovery.exact_image v.Recovery.verdict);
  (* Hard poison: retry budget exhausted, the line is scrubbed and the
     loss reported — fail-stop on content, never a hang. *)
  Memsys.restore mem base;
  Memsys.poison_line mem line;
  let v = Recovery.run_verified ~layout mem in
  (match v.Recovery.verdict with
  | Recovery.Salvaged ds
    when List.exists
           (function
             | Recovery.Media_failed { line = l } -> l = line | _ -> false)
           ds ->
      ()
  | d -> Alcotest.failf "expected Media_failed, got %a" Recovery.pp_verdict d);
  Alcotest.(check bool) "line scrubbed" false (Memsys.is_poisoned mem line)

(* The verified scan, pinned on two fixed images: a crash trial's image
   (seed 2, crash at 75 us) and the same image with planted media faults:
   a transient fault on the first registry line (one retry and its
   backoff), a poisoned line at the heap base (the retry budget, then a
   scrub) and a torn undo log on the last cell the clean scan rolled
   back. Every field of the report is pinned, the virtual duration to the
   bit, so a change to how the scan runs, rather than to what it reads,
   writes or reports, must keep them all. *)
let pinned_scan_images () =
  let mem, layout, _, _ =
    crashed_world ~verified:true ~seed:2 ~crash_ns:75_000.0 ()
  in
  let base = Memsys.snapshot mem in
  let clean = Recovery.run_verified ~layout mem in
  let lw = (Memsys.config mem).Memsys.line_words in
  let torn =
    match clean.Recovery.vreport.Recovery.rolled_back with
    | c :: _ -> c
    | [] -> layout.Layout.heap_base
  in
  Memsys.restore mem base;
  Memsys.arm_transient_fault mem (Layout.registry_segment layout 0 / lw);
  Memsys.poison_line mem (layout.Layout.heap_base / lw);
  Memsys.poke_persisted mem (Incll.backup torn)
    (Memsys.persisted mem (Incll.backup torn) lxor 0x5A5A);
  let faulty = Recovery.run_verified ~layout mem in
  (clean, faulty)

let check_report what (v : Recovery.verified) ~failed_epoch ~scanned
    ~rolled_back ~rp_ids ~verdict ~read_retries ~duration_ns =
  let r = v.Recovery.vreport in
  let name field = what ^ ": " ^ field in
  Alcotest.(check int) (name "failed_epoch") failed_epoch
    r.Recovery.failed_epoch;
  Alcotest.(check int) (name "scanned") scanned r.Recovery.scanned;
  Alcotest.(check (list int)) (name "rolled_back") rolled_back
    r.Recovery.rolled_back;
  Alcotest.(check (list (pair int int))) (name "rp_ids") rp_ids
    r.Recovery.rp_ids;
  check_verdict (name "verdict") verdict v.Recovery.verdict;
  Alcotest.(check int) (name "read_retries") read_retries
    v.Recovery.read_retries;
  Alcotest.(check int64) (name "duration_ns, bit for bit")
    (Int64.bits_of_float duration_ns)
    (Int64.bits_of_float r.Recovery.duration_ns)

let test_verified_scan_pinned () =
  let clean, faulty = pinned_scan_images () in
  check_report "clean image" clean ~failed_epoch:3 ~scanned:52
    ~rolled_back:[ 132219; 132216; 132211; 132208 ] ~rp_ids:[ (0, 1) ]
    ~verdict:Recovery.Clean ~read_retries:0 ~duration_ns:0x1.b18p+11;
  check_report "faulty image" faulty ~failed_epoch:3 ~scanned:52
    ~rolled_back:[ 132216; 132211; 132208 ] ~rp_ids:[ (0, 0) ]
    ~verdict:
      (Recovery.Salvaged
         [
           Recovery.Torn_log { cell = 131171 };
           Recovery.Torn_log { cell = 132219 };
           Recovery.Torn_log { cell = 131168 };
           Recovery.Media_failed { line = 16396 };
         ])
    ~read_retries:6 ~duration_ns:0x1.348p+12

(* The verified scan runs as thread 0: every access it makes publishes
   tid 0. Once it returns, or raises (here from a backend whose loads
   fail), the memory is left as outside any simulated thread: an access
   publishes tid -1. *)
let test_verified_scan_tids () =
  let mem, layout, _, _ =
    crashed_world ~verified:true ~seed:2 ~crash_ns:75_000.0 ()
  in
  let bus = Memsys.bus mem in
  let access_tids evs =
    List.filter_map
      (function
        | Event.Load { tid; _ } | Event.Store { tid; _ } | Event.Pwb { tid; _ }
          ->
            Some tid
        | _ -> None)
      evs
  in
  let _, evs = Event.record bus (fun () -> Recovery.run_verified ~layout mem) in
  let tids = access_tids evs in
  Alcotest.(check bool) "the scan loads, stores and flushes" true
    (List.length tids > 100);
  Alcotest.(check (list int)) "every access of the scan is thread 0"
    (List.map (fun _ -> 0) tids) tids;
  let after () =
    let _, evs =
      Event.record bus (fun () ->
          Memsys.store mem layout.Layout.heap_base 1;
          ignore (Memsys.load mem layout.Layout.heap_base);
          Memsys.pwb mem layout.Layout.heap_base)
    in
    access_tids evs
  in
  Alcotest.(check (list int)) "after it returns" [ -1; -1; -1 ] (after ());
  let b = Backend.of_memsys mem in
  let unreadable = { b with Backend.load = (fun _ -> failwith "unreadable") } in
  (match Recovery.run_verified_backend ~layout unreadable with
  | _ -> Alcotest.fail "a failing load must escape the scan"
  | exception Failure _ -> ());
  Alcotest.(check (list int)) "after it raises" [ -1; -1; -1 ] (after ())

let test_integrity_off_keeps_raw_words () =
  (* integrity=false must keep the historical raw-word representation:
     plain epochs in the global word and in every cell tag, no seal bits. *)
  let mem, layout, cell = crash_world ~integrity:false () in
  Alcotest.(check int) "raw global epoch word" 1
    (Memsys.persisted mem layout.Layout.epoch_addr);
  let w = Memsys.persisted mem (Incll.epoch_id cell) in
  Alcotest.(check int) "raw cell tag, no seal bits" 0 w;
  Alcotest.(check bool) "layout reserves no regsum region" true
    (layout.Layout.regsum_base = -1)

(* ------------------------------------------------------------------ *)
(* Condition variables under checkpointing (paper Figure 7) *)

let test_cond_wait_no_deadlock () =
  let _mem, sched, _env, rt =
    fresh ~cfg:(rt_cfg ~period_ns:15_000.0 ()) ()
  in
  Runtime.start rt;
  let m = Simsched.Mutex.create ~name:"app" () in
  let cv = Simsched.Condvar.create () in
  let q = Queue.create () in
  let consumed = ref 0 in
  let n = 300 in
  ignore
    (Runtime.spawn rt ~slot:0 ~name:"consumer" (fun _ctx ->
         for _ = 1 to n do
           Runtime.rp rt ~slot:0 1;
           Simsched.Mutex.lock sched m;
           while Queue.is_empty q do
             Runtime.cond_wait rt ~slot:0 cv m
           done;
           ignore (Queue.pop q);
           incr consumed;
           Simsched.Mutex.unlock sched m
         done));
  ignore
    (Runtime.spawn rt ~slot:1 ~name:"producer" (fun _ctx ->
         for i = 1 to n do
           Runtime.rp rt ~slot:1 2;
           Env.compute (Runtime.env rt) 300.0;
           Simsched.Mutex.lock sched m;
           Queue.push i q;
           Simsched.Condvar.signal sched cv;
           Simsched.Mutex.unlock sched m
         done));
  ignore
    (Scheduler.spawn sched (fun () ->
         Scheduler.sleep sched 1_000_000.0;
         Runtime.stop rt));
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  Alcotest.(check int) "all consumed" n !consumed;
  Alcotest.(check bool) "checkpoints happened" true
    ((Runtime.stats rt).Runtime.checkpoints > 3)

(* ------------------------------------------------------------------ *)
(* Pipelined checkpointing: async epoch advance, double-buffered commits *)

(* Staged reclamation: a [collect_pending] snapshot detaches the epoch's
   frees from the heap; the blocks only become reusable at [release] (the
   pipelined runtime calls it at seal, after the background walk). *)
let test_heap_staged_release () =
  let _mem, _sched, _env, rt = fresh () in
  in_thread rt (fun ctx ->
      let heap = Runtime.heap rt in
      let a = Heap.alloc ctx heap ~words:4 in
      Heap.free ctx heap a ~words:4;
      let staged = Heap.collect_pending heap in
      Alcotest.(check (list int)) "staged addresses" [ a ]
        (Heap.staged_addrs staged);
      let b = Heap.alloc ctx heap ~words:4 in
      Alcotest.(check bool) "unreleased block not reused" true (a <> b);
      Alcotest.(check (list int)) "pending drained by the snapshot" []
        (Heap.staged_addrs (Heap.collect_pending heap));
      Heap.release heap staged;
      let c = Heap.alloc ctx heap ~words:4 in
      Alcotest.(check int) "released block reused" a c)

(* The same periodic-coordinator workload in both modes: the pipelined
   runtime must collapse the mutator stall (quiescence + handoff instead
   of the whole flush) and account the displaced flush as overlap. *)
let coordinator_stats ~pipeline =
  let _mem, sched, _env, rt =
    fresh ~cfg:(rt_cfg ~period_ns:20_000.0 ~pipeline ()) ()
  in
  Runtime.start rt;
  let n_cells = 64 in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         let base = Runtime.alloc_incll_array rt ~slot:0 n_cells ~init:0 in
         let cells =
           Array.init n_cells (fun i -> Heap.cell_at (Runtime.env rt) base i)
         in
         for i = 1 to 2000 do
           Runtime.update rt ~slot:0 cells.(i mod n_cells) i;
           Env.compute (Runtime.env rt) 100.0;
           Runtime.rp rt ~slot:0 1
         done;
         Runtime.stop rt));
  ignore (Scheduler.run sched);
  Runtime.stats rt

let test_pipeline_stall_collapse () =
  let classic = coordinator_stats ~pipeline:false in
  let pipe = coordinator_stats ~pipeline:true in
  Alcotest.(check bool) "classic checkpointed" true
    (classic.Runtime.checkpoints >= 5);
  Alcotest.(check bool) "pipeline checkpointed" true
    (pipe.Runtime.checkpoints >= 5);
  Alcotest.check (Alcotest.float 1e-6) "classic has no overlap" 0.0
    classic.Runtime.overlap_ns;
  Alcotest.(check bool) "pipeline overlaps the flush" true
    (pipe.Runtime.overlap_ns > 0.0);
  let per s =
    s.Runtime.stall_ns /. float_of_int (max 1 s.Runtime.checkpoints)
  in
  Alcotest.(check bool)
    (Printf.sprintf "stall collapsed (%.0f -> %.0f ns/ckpt)" (per classic)
       (per pipe))
    true
    (per pipe < 0.5 *. per classic)

(* Double-buffered commits (integrity mode): consecutive seals alternate
   slots by epoch parity, so after epochs 1 and 2 slot B holds the odd
   seal, slot A the even one, and both CRCs certify. *)
let test_pipeline_commit_slots_alternate () =
  let cfg = { (rt_cfg ~pipeline:true ()) with Runtime.integrity = true } in
  let mem, sched, _env, rt = fresh ~cfg () in
  let layout = Runtime.layout rt in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         let cell = Runtime.alloc_incll rt ~slot:0 0 in
         for i = 1 to 400 do
           Runtime.update rt ~slot:0 cell i;
           Env.compute (Runtime.env rt) 100.0;
           Runtime.rp rt ~slot:0 1
         done;
         Runtime.stop rt));
  ignore
    (Scheduler.spawn ~name:"cp" sched (fun () ->
         Scheduler.sleep sched 10_000.0;
         Runtime.run_checkpoint rt;
         Scheduler.sleep sched 10_000.0;
         Runtime.run_checkpoint rt));
  (match Scheduler.run sched with
  | Scheduler.Completed -> ()
  | Scheduler.Crash_interrupt _ -> Alcotest.fail "crash");
  Alcotest.(check int) "epoch sealed at 2" 2
    (Checksum.epoch_of (Memsys.persisted mem layout.Layout.epoch_addr));
  let ea = Memsys.persisted mem layout.Layout.commit_epoch_addr in
  let eb = Memsys.persisted mem layout.Layout.commit2_epoch_addr in
  Alcotest.(check int) "slot A holds the even seal" 2 ea;
  Alcotest.(check int) "slot B holds the odd seal" 1 eb;
  Alcotest.(check int) "slot A CRC certifies"
    (Checksum.commit ~epoch:2 ~addr:layout.Layout.commit_epoch_addr)
    (Memsys.persisted mem layout.Layout.commit_crc_addr);
  Alcotest.(check int) "slot B CRC certifies"
    (Checksum.commit ~epoch:1 ~addr:layout.Layout.commit2_epoch_addr)
    (Memsys.persisted mem layout.Layout.commit2_crc_addr)

(* The pipelined crash trial: same shape as [crash_trial], but the oracle
   snapshots a host-side mirror of the counters instead of persisted
   reads — at the pipelined quiescent point (the handoff) the epoch's
   lines are still being flushed in the background, so persisted reads
   would be premature; the mirror is what the completed walk promises. *)
let pipeline_crash_trial ?(verified = false) ~seed ~crash_ns () =
  let cfg =
    {
      (rt_cfg ~period_ns:20_000.0 ~pipeline:true ()) with
      Runtime.integrity = verified;
    }
  in
  let mem, sched, _env, rt = fresh ~seed ~evict_rate:0.2 ~cfg () in
  let layout = Runtime.layout rt in
  let n_cells = 8 in
  let cells = ref [||] in
  let mirror = Array.make n_cells 0 in
  let snapshots = Hashtbl.create 8 in
  ignore
    (Runtime.spawn rt ~slot:0 (fun _ctx ->
         let base = Runtime.alloc_incll_array rt ~slot:0 n_cells ~init:0 in
         cells :=
           Array.init n_cells (fun i -> Heap.cell_at (Runtime.env rt) base i);
         let rng = Rng.create (seed * 7 + 1) in
         let rec loop i =
           let k = Rng.int rng n_cells in
           Runtime.update rt ~slot:0 (!cells).(k) i;
           mirror.(k) <- i;
           if Rng.int rng 50 = 0 then
             ignore (Runtime.alloc_incll rt ~slot:0 i);
           if Rng.int rng 4 = 0 then Runtime.rp rt ~slot:0 1;
           loop (i + 1)
         in
         loop 1));
  Runtime.start rt ~on_flushed:(fun next_epoch ->
      if Array.length !cells > 0 then
        Hashtbl.replace snapshots next_epoch (Array.copy mirror));
  Scheduler.set_crash_at sched crash_ns;
  (match Scheduler.run sched with
  | Scheduler.Crash_interrupt _ -> ()
  | Scheduler.Completed -> Alcotest.fail "expected crash");
  Memsys.crash mem;
  let rep =
    if verified then begin
      let v = Recovery.run_verified ~layout mem in
      if not (Recovery.exact_image v.Recovery.verdict) then
        Alcotest.failf "perfect media judged %a" Recovery.pp_verdict
          v.Recovery.verdict;
      v.Recovery.vreport
    end
    else Recovery.run ~threads:2 ~layout mem
  in
  match Hashtbl.find_opt snapshots rep.Recovery.failed_epoch with
  | None -> None (* crash in the creation epoch *)
  | Some snap ->
      Some
        ( snap,
          Array.map (fun c -> Memsys.persisted mem (Incll.record c)) !cells )

let check_pipeline_trial ?verified ~seed ~crash_ns () =
  match pipeline_crash_trial ?verified ~seed ~crash_ns () with
  | None -> ()
  | Some (snap, got) ->
      Alcotest.(check (array int))
        (Printf.sprintf "values (seed %d)" seed)
        snap got

let test_pipeline_crash_recovery () =
  List.iter
    (fun seed ->
      check_pipeline_trial ~seed
        ~crash_ns:(30_000.0 +. float_of_int (seed * 13_777))
        ())
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* Random crash points through the two-slot verified scan: every image —
   including crashes mid-overlap and between the commit-slot seals — must
   be judged exact on perfect media and restore the snapshot. *)
let test_pipeline_verified_crash_recovery () =
  List.iter
    (fun seed ->
      check_pipeline_trial ~verified:true ~seed
        ~crash_ns:(30_000.0 +. float_of_int (seed * 17_333))
        ())
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Flush and reuse orders. The modified sets flush slot [max_threads - 1]
   first, each slot's addresses in tracking order; the allocator hands
   back the same-size blocks one epoch freed oldest first. Every pwb of a
   checkpoint and every reused block depends on these orders. *)

(* Heap words nothing else in these worlds touches: slot [slot]'s
   [i]-th tracked address. *)
let known_addr rt ~slot i =
  (Runtime.layout rt).Layout.heap_base + 8192 + (slot * 64) + i

(* Slots 0-2 track four known addresses each, round-robin. *)
let track_known rt =
  for i = 0 to 3 do
    for slot = 0 to 2 do
      Runtime.add_modified rt ~slot (known_addr rt ~slot i)
    done
  done

let expected_flush rt =
  List.concat_map (fun slot -> List.init 4 (known_addr rt ~slot)) [ 2; 1; 0 ]
  @ [ (Runtime.layout rt).Layout.epoch_addr ]

(* Register slots 0-2 from the calling fiber with their flags raised (as
   before a blocking call), so checkpoints proceed without them; a first
   checkpoint flushes what registration tracked. *)
let register_idle rt =
  for slot = 0 to 2 do
    Runtime.register rt ~slot;
    Runtime.checkpoint_allow rt ~slot
  done;
  Runtime.run_checkpoint rt

(* The addresses of the Pwb events published while [on] holds. *)
let capture_pwbs sched =
  let on = ref false and seen = ref [] in
  ignore
    (Event.subscribe (Scheduler.trace_bus sched) (function
      | Event.Pwb { addr; _ } when !on -> seen := addr :: !seen
      | _ -> ()));
  (on, fun () -> List.rev !seen)

let test_classic_flush_order () =
  let _mem, sched, _env, rt = fresh () in
  let on, seen = capture_pwbs sched in
  ignore
    (Scheduler.spawn sched (fun () ->
         register_idle rt;
         track_known rt;
         on := true;
         Runtime.run_checkpoint rt;
         on := false));
  ignore (Scheduler.run sched);
  Alcotest.(check (list int))
    "slots 2, 1, 0, each in tracking order, then the seal" (expected_flush rt)
    (seen ())

let test_pipelined_flush_order () =
  let _mem, sched, _env, rt =
    fresh ~cfg:(rt_cfg ~pipeline:true ~flusher_pool:1 ()) ()
  in
  let on, seen = capture_pwbs sched in
  ignore
    (Scheduler.spawn sched (fun () ->
         register_idle rt;
         (* the first walk seals long before *)
         Scheduler.sleep sched 1_000_000.0;
         track_known rt;
         on := true;
         Runtime.run_checkpoint rt;
         Scheduler.sleep sched 1_000_000.0;
         on := false;
         Runtime.stop rt));
  ignore (Scheduler.run sched);
  Alcotest.(check (list int))
    "the one flusher walks the classic order, then seals" (expected_flush rt)
    (seen ())

(* [restart ~reflush] hands slot 0 the rolled-back cells; the next
   checkpoint flushes them last listed first. *)
let test_reflush_order () =
  let _mem, sched, env, _rt = fresh () in
  let rt = Runtime.restart ~cfg:(rt_cfg ()) ~reflush:[ 900; 300; 600 ] env in
  let on, seen = capture_pwbs sched in
  ignore
    (Scheduler.spawn sched (fun () ->
         on := true;
         Runtime.run_checkpoint rt;
         on := false));
  ignore (Scheduler.run sched);
  Alcotest.(check (list int))
    "reflushed cells, last listed first, then the seal"
    [ 600; 300; 900; (Runtime.layout rt).Layout.epoch_addr ]
    (seen ())

(* Blocks of two sizes freed interleaved in one epoch come back per size,
   oldest first, then fresh ones; a later epoch's frees are reused before
   an earlier epoch's leftovers; another slot's frees are never handed to
   this one. [promote] is [advance_epoch] or the pipelined pair. *)
let check_reuse_order ~what promote =
  let _mem, _sched, _env, rt = fresh () in
  in_thread rt (fun ctx ->
      let heap = Runtime.heap rt in
      let other = Runtime.ctx rt ~slot:1 in
      let fours = Array.init 5 (fun _ -> Heap.alloc ctx heap ~words:4) in
      let sixes = Array.init 2 (fun _ -> Heap.alloc ctx heap ~words:6) in
      let foreign = Heap.alloc other heap ~words:4 in
      let free4 i = Heap.free ctx heap fours.(i) ~words:4 in
      let free6 i = Heap.free ctx heap sixes.(i) ~words:6 in
      free4 0; free6 0; free4 1; free4 2; free6 1; free4 3;
      Heap.free other heap foreign ~words:4;
      promote heap;
      let take words = Heap.alloc_block ctx heap ~words in
      let reused label expected =
        let addr, fresh = expected in
        let got = take (if Array.mem addr sixes then 6 else 4) in
        Alcotest.(check (pair int bool)) (what ^ ": " ^ label) (addr, fresh) got
      in
      reused "first 4-word block freed" (fours.(0), false);
      reused "first 6-word block freed" (sixes.(0), false);
      reused "second 4-word block freed" (fours.(1), false);
      (* next epoch: one more free, while fours.(2) and fours.(3) wait *)
      free4 4;
      promote heap;
      reused "this epoch's free first" (fours.(4), false);
      reused "then the earlier epoch's, oldest first" (fours.(2), false);
      reused "last 4-word block freed" (fours.(3), false);
      reused "last 6-word block freed" (sixes.(1), false);
      let addr, fresh = take 4 in
      Alcotest.(check bool) (what ^ ": 4-word lists drained, fresh") true fresh;
      Alcotest.(check bool)
        (what ^ ": never a block of another size or slot") false
        (Array.mem addr sixes || addr = foreign);
      Alcotest.(check (pair int bool))
        (what ^ ": the other slot reuses its own block") (foreign, false)
        (Heap.alloc_block other heap ~words:4))

let test_heap_reuse_order () =
  check_reuse_order ~what:"advance_epoch" Heap.advance_epoch;
  check_reuse_order ~what:"collect_pending + release" (fun heap ->
      Heap.release heap (Heap.collect_pending heap))

(* ------------------------------------------------------------------ *)
(* The volatile bookkeeping allocates nothing once warm: a modified set
   and a free stack keep their arrays across epochs. Dev profile, read
   with [Gc.minor_words] after a warm-up epoch. *)

let tracked i = 20_000 + (i * 8)

(* Words [measure] allocates in epoch 1 of a world whose slot 0 tracked
   [n] addresses in epoch 0 and tracks them again before [measure]. *)
let words_after_warm_epoch ?(track_first = true) n measure =
  let _mem, sched, _env, rt = fresh () in
  let track () =
    for i = 0 to n - 1 do
      Runtime.add_modified rt ~slot:0 (tracked i)
    done
  in
  let words = ref nan in
  ignore
    (Scheduler.spawn sched (fun () ->
         track ();
         Runtime.run_checkpoint rt;
         if track_first then track ();
         let w0 = Gc.minor_words () in
         measure rt track;
         words := Gc.minor_words () -. w0));
  ignore (Scheduler.run sched);
  !words

(* 3 000 words with a per-slot [int list] (a 3-word cons per call). *)
let test_tracking_allocates_nothing () =
  Alcotest.check (Alcotest.float 0.0) "words allocated by 1 000 add_modified"
    0.0
    (words_after_warm_epoch ~track_first:false 1_000 (fun _ track -> track ()))

(* With per-slot lists, 148 words for 10 addresses and 5 098 for 1 000:
   the merged list's conses and the boxed float of the pool's charge
   accumulator, 5 words per address. *)
let test_checkpoint_flush_allocation_flat () =
  let checkpoint n =
    words_after_warm_epoch n (fun rt _ -> Runtime.run_checkpoint rt)
  in
  let ten = checkpoint 10 and thousand = checkpoint 1_000 in
  if thousand > ten then
    Alcotest.failf
      "a checkpoint flushing 1 000 addresses allocated %.0f words, one \
       flushing 10 %.0f"
      thousand ten

(* With hash tables of lists, 46 words: the pending pair and its cons,
   the staged slot list, every (slot, words) key and each lookup's
   [Some], and the free-list cons. *)
let test_heap_cycle_allocates_pair () =
  let _mem, _sched, _env, rt = fresh () in
  let words = ref nan in
  in_thread rt (fun ctx ->
      let heap = Runtime.heap rt in
      let a = Heap.alloc ctx heap ~words:4 in
      let cycle () =
        Heap.free ctx heap a ~words:4;
        Heap.advance_epoch heap;
        ignore (Heap.alloc_block ctx heap ~words:4)
      in
      cycle ();
      let w0 = Gc.minor_words () in
      cycle ();
      words := Gc.minor_words () -. w0);
  Alcotest.check (Alcotest.float 0.0)
    "free, advance_epoch, alloc_block: only the returned pair" 3.0 !words

(* ------------------------------------------------------------------ *)
(* QCheck: the headline buffered-durable-linearizability property *)

let prop_recovery_equals_last_checkpoint =
  QCheck.Test.make ~name:"recovery restores exactly the last checkpoint"
    ~count:25
    (Gen_common.arb_crash_case ())
    (fun c ->
      match
        crash_trial ~seed:c.Gen_common.seed ~crash_ns:(Gen_common.crash_ns c) ()
      with
      | None, _, _ -> true
      | Some s, Some r, _ -> s = r
      | Some _, None, _ -> false)

(* Same property through the verified scan: on perfect media it must both
   judge the image exact and restore the identical state. *)
let prop_verified_recovery_exact_on_clean_media =
  QCheck.Test.make
    ~name:"verified recovery exact + equal on perfect media" ~count:12
    (Gen_common.arb_crash_case ())
    (fun c ->
      match
        crash_trial ~verified:true ~seed:c.Gen_common.seed
          ~crash_ns:(Gen_common.crash_ns c) ()
      with
      | None, _, _ -> true
      | Some s, Some r, _ -> s = r
      | Some _, None, _ -> false)

(* Observable equivalence of the two checkpointing modes: for the same
   generated workload and crash time, pipeline-on and pipeline-off must
   both recover exactly the state their last checkpoint promised — the
   durability contract is mode-independent even though the pipelined run
   crashes in different protocol windows (mid-walk, between the slot
   seals, post-advance). *)
let prop_pipeline_classic_equivalent =
  QCheck.Test.make
    ~name:"pipeline and classic recover their last checkpoints alike"
    ~count:15
    (Gen_common.arb_crash_case ())
    (fun c ->
      let classic_ok =
        match
          crash_trial ~seed:c.Gen_common.seed
            ~crash_ns:(Gen_common.crash_ns c) ()
        with
        | None, _, _ -> true
        | Some s, Some r, _ -> s = r
        | Some _, None, _ -> false
      in
      let pipeline_ok =
        match
          pipeline_crash_trial ~seed:c.Gen_common.seed
            ~crash_ns:(Gen_common.crash_ns c) ()
        with
        | None -> true
        | Some (snap, got) -> snap = got
      in
      classic_ok && pipeline_ok)

let qcheck tests =
  List.map (fun t -> Gen_common.to_alcotest ~suite:"respct" t) tests

let () =
  Alcotest.run "respct"
    [
      ( "incll",
        [
          Alcotest.test_case "init/read/update" `Quick
            test_incll_init_read_update;
          Alcotest.test_case "logs once per epoch" `Quick
            test_incll_logs_once_per_epoch;
          Alcotest.test_case "cells line-resident" `Quick
            test_incll_cells_line_resident;
        ] );
      ( "heap",
        [
          Alcotest.test_case "free/reuse after checkpoint" `Quick
            test_heap_free_reuse_after_checkpoint;
          Alcotest.test_case "out of memory" `Quick test_heap_out_of_memory;
          Alcotest.test_case "cell packing" `Quick test_heap_cell_packing;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "epoch 0 persisted at create" `Quick
            test_epoch_starts_at_zero_persisted;
          Alcotest.test_case "checkpoint persists + increments" `Quick
            test_checkpoint_persists_and_increments_epoch;
          Alcotest.test_case "checkpoint waits for all threads" `Quick
            test_checkpoint_waits_for_all_threads;
          Alcotest.test_case "RP cheap without pending checkpoint" `Quick
            test_rp_without_pending_checkpoint_is_cheap;
          Alcotest.test_case "RP allocates nothing without pending checkpoint"
            `Quick test_rp_without_pending_checkpoint_allocates_nothing;
          Alcotest.test_case "periodic coordinator" `Quick
            test_periodic_coordinator_runs;
          Alcotest.test_case "deregistered thread not awaited" `Quick
            test_deregistered_thread_does_not_block_checkpoint;
          Alcotest.test_case "registry full" `Quick test_registry_full;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash before first checkpoint" `Quick
            test_crash_before_first_checkpoint_recovers_initial;
          Alcotest.test_case "restores last checkpoint (8 seeds)" `Quick
            test_crash_recovery_restores_last_checkpoint;
          Alcotest.test_case "idempotent" `Quick test_recovery_idempotent;
          Alcotest.test_case "RP ids recovered" `Quick test_rp_ids_recovered;
          Alcotest.test_case "restart and second crash" `Quick
            test_restart_and_second_crash;
          Alcotest.test_case "non-PCSO ablation breaks recovery" `Quick
            test_non_pcso_breaks_recovery;
          Alcotest.test_case "eADR checkpoint flush free" `Quick
            test_eadr_checkpoint_flush_free;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "cell seal round-trips" `Quick
            test_checksum_cell_seals;
          Alcotest.test_case "metadata seal round-trips" `Quick
            test_checksum_metadata_seals;
          Alcotest.test_case "verdict taxonomy" `Quick
            test_verified_verdict_taxonomy;
          Alcotest.test_case "media retry + scrub" `Quick
            test_verified_media_retry_and_scrub;
          Alcotest.test_case "integrity off keeps raw words" `Quick
            test_integrity_off_keeps_raw_words;
          Alcotest.test_case "verified scan pinned" `Quick
            test_verified_scan_pinned;
          Alcotest.test_case "verified scan runs as thread 0" `Quick
            test_verified_scan_tids;
        ]
        @ qcheck [ prop_crcs_match_bytewise ] );
      ( "condvar",
        [
          Alcotest.test_case "cond_wait under checkpoints" `Quick
            test_cond_wait_no_deadlock;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "heap staged release" `Quick
            test_heap_staged_release;
          Alcotest.test_case "mutator stall collapses" `Quick
            test_pipeline_stall_collapse;
          Alcotest.test_case "commit slots alternate" `Quick
            test_pipeline_commit_slots_alternate;
          Alcotest.test_case "crash recovery (8 seeds)" `Quick
            test_pipeline_crash_recovery;
          Alcotest.test_case "verified crash recovery (4 seeds)" `Quick
            test_pipeline_verified_crash_recovery;
        ] );
      ( "orders",
        [
          Alcotest.test_case "classic flush order" `Quick
            test_classic_flush_order;
          Alcotest.test_case "pipelined flush order" `Quick
            test_pipelined_flush_order;
          Alcotest.test_case "reflush order" `Quick test_reflush_order;
          Alcotest.test_case "heap reuse order" `Quick test_heap_reuse_order;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "tracking allocates nothing" `Quick
            test_tracking_allocates_nothing;
          Alcotest.test_case "checkpoint flush allocation flat" `Quick
            test_checkpoint_flush_allocation_flat;
          Alcotest.test_case "free/advance/alloc allocates the pair" `Quick
            test_heap_cycle_allocates_pair;
        ] );
      ( "properties",
        qcheck
          [
            prop_recovery_equals_last_checkpoint;
            prop_verified_recovery_exact_on_clean_media;
            prop_pipeline_classic_equivalent;
          ] );
    ]
