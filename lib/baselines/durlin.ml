let log_words_per_slot = 4096

let setup env ~policy ~max_threads =
  let mcfg = Simnvm.Memsys.config (Simsched.Env.mem env) in
  let log_base =
    mcfg.Simnvm.Memsys.nvm_words - (max_threads * log_words_per_slot)
  in
  let fa = Fatomic.create env ~policy ~max_threads ~log_base ~log_words_per_slot in
  let lw = mcfg.Simnvm.Memsys.line_words in
  let bump = Pds.Bump.create env ~base:lw ~limit:log_base in
  (fa, Fatomic.mem fa bump)

let map_ops fa m =
  {
    Pds.Ops.insert =
      (fun ~slot ~key ~value ->
        Fatomic.with_op fa ~slot (fun () ->
            Pds.Hashmap_transient.insert m ~slot ~key ~value));
    remove =
      (fun ~slot ~key ->
        Fatomic.with_op fa ~slot (fun () ->
            Pds.Hashmap_transient.remove m ~slot ~key));
    search =
      (fun ~slot ~key ->
        Fatomic.with_op fa ~slot (fun () ->
            Pds.Hashmap_transient.search m ~slot ~key));
    map_rp = Pds.Ops.no_rp;
  }

let queue_ops fa q =
  {
    Pds.Ops.enqueue =
      (fun ~slot v ->
        Fatomic.with_op fa ~slot (fun () ->
            Pds.Queue_transient.enqueue q ~slot v));
    dequeue =
      (fun ~slot ->
        Fatomic.with_op fa ~slot (fun () ->
            Pds.Queue_transient.dequeue q ~slot));
    queue_rp = Pds.Ops.no_rp;
  }

let make_map env ~policy ~max_threads ~buckets =
  let fa, mem = setup env ~policy ~max_threads in
  let m = Pds.Hashmap_transient.create env mem ~buckets in
  (map_ops fa m, Pds.Ops.null_system)

let make_queue env ~policy ~max_threads =
  let fa, mem = setup env ~policy ~max_threads in
  let q = Pds.Queue_transient.create env mem in
  (queue_ops fa q, Pds.Ops.null_system)

let make_map_instrumented env ~policy ~max_threads ~buckets =
  let fa, mem = setup env ~policy ~max_threads in
  Fatomic.set_shadow fa true;
  let m =
    Fatomic.with_op fa ~slot:0 (fun () ->
        Pds.Hashmap_transient.create env mem ~buckets)
  in
  (fa, m, map_ops fa m)

let make_queue_instrumented env ~policy ~max_threads =
  let fa, mem = setup env ~policy ~max_threads in
  Fatomic.set_shadow fa true;
  let q =
    Fatomic.with_op fa ~slot:0 (fun () -> Pds.Queue_transient.create env mem)
  in
  (fa, q, queue_ops fa q)
