(* Crash recovery of a key-value store built on the public API.

   Four writers update a ResPCT hash map while the coordinator checkpoints
   every 40 us; we snapshot the logical contents at each checkpoint (using
   the quiescent on_flushed hook), crash at a random instant, recover, and
   diff the recovered map against the snapshot for the failed epoch —
   exactly the buffered-durable-linearizability contract.

   Run with: dune exec examples/kv_recovery.exe *)

let () =
  let seed = 2026 in
  let mem =
    Simnvm.Memsys.create
      { Simnvm.Memsys.default_config with Simnvm.Memsys.evict_rate = 0.15; seed }
  in
  let sched = Simsched.Scheduler.create ~seed () in
  let env = Simsched.Env.make mem sched in
  let cfg =
    {
      Respct.Runtime.default_config with
      Respct.Runtime.period_ns = 40_000.0;
      max_threads = 8;
    }
  in
  let rt = Respct.Runtime.create ~cfg env in
  let map = ref None in
  let snapshots = Hashtbl.create 16 in
  (* The coordinator's hook snapshots inside the quiescent window. *)
  Respct.Runtime.start rt ~on_flushed:(fun next_epoch ->
      Option.iter
        (fun m ->
          Hashtbl.replace snapshots next_epoch
            (Pds.Hashmap_respct.persisted_bindings mem m))
        !map);
  for w = 0 to 3 do
    ignore
      (Respct.Runtime.spawn rt ~slot:w (fun _ctx ->
           if w = 0 then
             map := Some (Pds.Hashmap_respct.create rt ~slot:0 ~buckets:256);
           while !map = None do
             Simsched.Scheduler.sleep sched 500.0
           done;
           let m = Option.get !map in
           let rng = Simnvm.Rng.create (seed + w) in
           let rec loop i =
             let key = Simnvm.Rng.int rng 512 in
             (match Simnvm.Rng.int rng 3 with
             | 0 -> ignore (Pds.Hashmap_respct.remove m ~slot:w ~key)
             | _ -> ignore (Pds.Hashmap_respct.insert m ~slot:w ~key ~value:i));
             Respct.Runtime.rp rt ~slot:w 1;
             loop (i + 1)
           in
           loop 0))
  done;
  Simsched.Scheduler.set_crash_at sched 150_000.0;
  (match Simsched.Scheduler.run sched with
  | Simsched.Scheduler.Crash_interrupt t ->
      Printf.printf "power failure at t=%.0f us\n" (t /. 1e3)
  | Simsched.Scheduler.Completed -> assert false);
  Simnvm.Memsys.crash mem;
  let report =
    Respct.Recovery.run ~threads:4 ~layout:(Respct.Runtime.layout rt) mem
  in
  let failed = report.Respct.Recovery.failed_epoch in
  Printf.printf "recovery rolled back %d cells (failed epoch %d)\n"
    (List.length report.Respct.Recovery.rolled_back)
    failed;
  let recovered =
    Pds.Hashmap_respct.persisted_bindings mem (Option.get !map)
  in
  match Hashtbl.find_opt snapshots failed with
  | None ->
      Printf.printf
        "crash before the first checkpoint: recovered map has %d bindings \
         (initial state)\n"
        (List.length recovered)
  | Some snapshot ->
      Printf.printf
        "snapshot at last checkpoint: %d bindings; recovered: %d bindings\n"
        (List.length snapshot) (List.length recovered);
      assert (snapshot = recovered);
      print_endline
        "recovered contents EXACTLY match the last checkpoint: buffered \
         durable linearizability holds"
