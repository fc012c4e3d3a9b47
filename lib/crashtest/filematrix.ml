(* Crash-matrix dimension over Filemem images (ROADMAP item 3 leftover).

   The simulator dimensions enumerate adversarial write-back images from
   the cache model; a Filemem world has no cache model to enumerate, but
   it has the real thing the prockill harness checks statistically: a
   durable file image whose psync is load-bearing. This dimension makes
   that check exhaustive-in-virtual-time and deterministic — a seeded
   multi-threaded workload (hashmap + partitioned InCLL counters, the
   prockill shape) over a Filemem backend, a virtual power cut at a
   chosen instant, then verified recovery held to the same two oracles
   as prockill:

   - no lost sealed epoch: the recovered epoch must be at least the
     largest epoch sealed before the crash;
   - exact snapshot: when the verdict promises a bit-exact image, the
     recovered digest must equal the digest taken at the failed epoch's
     quiescent instant.

   Unlike prockill the crash instant is virtual, so counterexamples
   shrink exactly (no statistical retries) and replay byte-for-byte. The
   planted [Elide_psync] mutant must break — proving the oracles (and
   the journalled write-back they guard) load-bearing. *)

module Sched = Simsched.Scheduler
module Rng = Simnvm.Rng

let nvm_words = 1 lsl 16
let dram_words = 1 lsl 12
let registry_per_slot = 1024
let buckets = 32
let ncounters = 16
let period_ns = 40_000.0

type params = {
  fseed : int;
  fthreads : int;
  fkeyspace : int;
  fops : int;  (* operations per worker *)
  fcrash_us : int;  (* virtual power-cut instant *)
  fmutant : bool;  (* arm Elide_psync after the first checkpoint *)
}

type violation =
  | Lost_sealed_epoch of { durable : int; sealed : int }
  | Snapshot_mismatch of { epoch : int; expected : int; got : int }
  | Unrecoverable_image of string
  | Walk_failed of string

let pp_violation ppf = function
  | Lost_sealed_epoch { durable; sealed } ->
      Fmt.pf ppf "lost sealed epoch: durable %d < sealed %d" durable sealed
  | Snapshot_mismatch { epoch; expected; got } ->
      Fmt.pf ppf "snapshot mismatch at epoch %d: expected %x got %x" epoch
        expected got
  | Unrecoverable_image msg -> Fmt.pf ppf "unrecoverable image: %s" msg
  | Walk_failed msg -> Fmt.pf ppf "oracle walk failed: %s" msg

type outcome = {
  fo_params : params;
  fo_crashed : bool;  (* the power cut fired before the workload ended *)
  fo_verdict : string;
  fo_failed_epoch : int;
  fo_sealed_max : int;
  fo_checkpoints : int;
  fo_violations : violation list;
}

let run_trial (p : params) ~dir : outcome =
  let path =
    Filename.concat dir
      (Printf.sprintf "fmx-%d-%d-%d-%d-%d.img" p.fseed p.fthreads p.fops
         p.fcrash_us
         (if p.fmutant then 1 else 0))
  in
  let cfg =
    {
      Filemem.default_config with
      Filemem.nvm_words;
      Filemem.dram_words;
      Filemem.evict_rate = 0.02;
      Filemem.seed = p.fseed;
    }
  in
  let meta =
    {
      Filemem.max_threads = p.fthreads;
      Filemem.registry_per_slot = registry_per_slot;
      Filemem.integrity = true;
    }
  in
  let fm = Filemem.create ~meta cfg ~path in
  let sched = Sched.create ~seed:p.fseed () in
  let env = Simsched.Env.make_backend (Filemem.backend fm) sched in
  let rcfg =
    {
      Respct.Runtime.default_config with
      Respct.Runtime.period_ns;
      Respct.Runtime.flusher_pool = 2;
      Respct.Runtime.max_threads = p.fthreads;
      Respct.Runtime.registry_per_slot = registry_per_slot;
      Respct.Runtime.integrity = true;
    }
  in
  let rt = Respct.Runtime.create ~cfg:rcfg env in
  let structures = ref None in
  let remaining = ref p.fthreads in
  let checkpoints = ref 0 in
  let sealed_max = ref 0 in
  let digests : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let line_words = cfg.Filemem.line_words in
  ignore
    (Sched.spawn ~name:"fmx-coord" sched (fun () ->
         while Option.is_none !structures do
           Sched.sleep sched 1_000.0
         done;
         let m, cbase = Option.get !structures in
         let heads = Pds.Hashmap_respct.heads m in
         let dig () =
           Prockill.digest_with ~read:(Filemem.persisted fm) ~line_words
             ~fuel:nvm_words ~heads ~buckets ~cbase ~ncounters
         in
         let last = ref 0 in
         let ckpt () =
           Respct.Runtime.run_checkpoint rt ~on_flushed:(fun e ->
               last := e;
               Hashtbl.replace digests e (dig ()));
           incr checkpoints;
           if !last > !sealed_max then sealed_max := !last
         in
         (* one checkpoint before the mutant arms, so every crash lands
            on a steady-state image (the prockill readiness protocol) *)
         ckpt ();
         if p.fmutant then Filemem.arm_mutant fm Filemem.Elide_psync;
         while !remaining > 0 do
           Sched.sleep sched period_ns;
           ckpt ()
         done));
  for w = 0 to p.fthreads - 1 do
    let wseed = p.fseed + (104729 * w) in
    ignore
      (Respct.Runtime.spawn
         ~name:(Printf.sprintf "fmx-w%d" w)
         rt ~slot:w
         (fun _ctx ->
           if w = 0 then begin
             let cbase =
               Respct.Runtime.alloc_incll_array rt ~slot:0 ncounters ~init:0
             in
             let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets in
             structures := Some (m, cbase)
           end;
           (* no readiness gate: workers must keep passing restart points
              or the coordinator's first checkpoint can never quiesce *)
           while Option.is_none !structures do
             Sched.sleep sched 1_000.0
           done;
           let m, cbase = Option.get !structures in
           let rng = Rng.create wseed in
           for _ = 1 to p.fops do
             (match Rng.int rng 8 with
             | 0 ->
                 ignore
                   (Pds.Hashmap_respct.remove m ~slot:w
                      ~key:(Rng.int rng p.fkeyspace))
             | 1 | 2 ->
                 let k = Rng.int rng (max 1 (ncounters / p.fthreads)) in
                 let idx = (w + (p.fthreads * k)) mod ncounters in
                 let cell = Respct.Heap.cell_at_words ~line_words cbase idx in
                 Respct.Runtime.update rt ~slot:w cell
                   (Respct.Runtime.read rt ~slot:w cell + 1)
             | _ ->
                 ignore
                   (Pds.Hashmap_respct.insert m ~slot:w
                      ~key:(Rng.int rng p.fkeyspace)
                      ~value:(Rng.bits rng land 0xFFFFF)));
             Respct.Runtime.rp rt ~slot:w 1
           done;
           remaining := !remaining - 1))
  done;
  Sched.set_crash_at sched (float_of_int p.fcrash_us *. 1_000.0);
  let crashed =
    match Sched.run sched with
    | Sched.Completed -> false
    | Sched.Crash_interrupt _ -> true
  in
  (* the power cut: volatile mirror dies, the durable image survives *)
  Filemem.crash fm;
  let layout = Prockill.layout_of fm in
  let v =
    Respct.Recovery.run_verified_backend ~layout (Filemem.backend fm)
  in
  let fe = v.Respct.Recovery.vreport.Respct.Recovery.failed_epoch in
  let verdict = Fmt.str "%a" Respct.Recovery.pp_verdict v.Respct.Recovery.verdict in
  let violations = ref [] in
  (match v.Respct.Recovery.verdict with
  | Respct.Recovery.Unrecoverable _ ->
      violations := [ Unrecoverable_image verdict ]
  | _ ->
      if fe < !sealed_max then
        violations :=
          Lost_sealed_epoch { durable = fe; sealed = !sealed_max }
          :: !violations;
      if Respct.Recovery.exact_image v.Respct.Recovery.verdict then (
        match (Hashtbl.find_opt digests fe, !structures) with
        | Some expected, Some (m, cbase) -> (
            match
              Prockill.digest_with ~read:(Filemem.persisted fm) ~line_words
                ~fuel:nvm_words
                ~heads:(Pds.Hashmap_respct.heads m)
                ~buckets ~cbase ~ncounters
            with
            | got ->
                if got <> expected then
                  violations :=
                    Snapshot_mismatch { epoch = fe; expected; got }
                    :: !violations
            | exception Failure msg ->
                violations := Walk_failed msg :: !violations)
        | _ -> ()));
  Filemem.close fm;
  (try Sys.remove path with Sys_error _ -> ());
  {
    fo_params = p;
    fo_crashed = crashed;
    fo_verdict = verdict;
    fo_failed_epoch = fe;
    fo_sealed_max = !sealed_max;
    fo_checkpoints = !checkpoints;
    fo_violations = List.rev !violations;
  }

let violating o = o.fo_violations <> []
let pp_violations = Fmt.(list ~sep:comma pp_violation)

(* ------------------------------------------------------------------ *)
(* Counterexamples: [# filematrix seed=.. threads=.. keyspace=.. ops=..
   crash_us=.. mutant=0|1]. The crash instant is virtual, so a run is a
   pure function of the params: one run per candidate, no retries. *)

let fields p =
  [
    ("seed", string_of_int p.fseed);
    ("threads", string_of_int p.fthreads);
    ("keyspace", string_of_int p.fkeyspace);
    ("ops", string_of_int p.fops);
    ("crash_us", string_of_int p.fcrash_us);
    ("mutant", if p.fmutant then "1" else "0");
  ]

let decode _body fs =
  let open Obs.Cx in
  let ( let* ) = Result.bind in
  let pos v =
    Option.bind (int_of_string_opt v) (fun n -> if n > 0 then Some n else None)
  in
  let* () =
    known fs [ "seed"; "threads"; "keyspace"; "ops"; "crash_us"; "mutant" ]
  in
  let* fseed = req fs "seed" int in
  let* fthreads = req fs "threads" pos in
  let* fkeyspace = req fs "keyspace" pos in
  let* fops = req fs "ops" nat in
  let* fcrash_us = req fs "crash_us" nat in
  let* fmutant = req fs "mutant" bit in
  Ok { fseed; fthreads; fkeyspace; fops; fcrash_us; fmutant }

let campaign ?dir () : params Obs.Cx.campaign =
  let in_dir f =
    match dir with
    | Some d -> f d
    | None -> Prockill.with_scratch_dir "respct-fmx" f
  in
  {
    Obs.Cx.tag = "filematrix";
    print = (fun p -> ([], fields p));
    decode;
    check =
      (fun p ->
        let o = in_dir (fun dir -> run_trial p ~dir) in
        if violating o then
          Obs.Cx.Fail (p, Fmt.str "%a" pp_violations o.fo_violations)
        else Obs.Cx.Pass);
    candidates =
      (fun p ->
        List.concat
          [
            (if p.fops >= 2 then [ { p with fops = p.fops / 2 } ] else []);
            (if p.fthreads > 1 then [ { p with fthreads = p.fthreads - 1 } ]
             else []);
            (* an earlier crash, in checkpoint-period steps *)
            (if p.fcrash_us > 50 then
               [ { p with fcrash_us = p.fcrash_us - 40 } ]
             else []);
          ]);
    attempts = 1;
  }

(* ------------------------------------------------------------------ *)
(* The check: clean worlds must pass every grid point, and the planted
   psync-elision mutant must be caught with an exact, replayable
   counterexample. *)

let grid (preset : Matrix.preset) =
  let crash_points =
    (* straddle several checkpoint boundaries: the first checkpoint ends
       near 40us, so walk from mid-steady-state outward *)
    match preset.Matrix.label with
    | "deep" -> [ 55; 70; 90; 110; 135; 160; 190; 230; 280 ]
    | _ -> [ 60; 95; 140; 200 ]
  in
  List.concat_map
    (fun (sched_seed, mem_seed) ->
      List.concat_map
        (fun crash_us ->
          [
            {
              fseed = sched_seed + (1_000_003 * mem_seed);
              fthreads = 2;
              fkeyspace = 96;
              fops = preset.Matrix.map_ops * 20;
              fcrash_us = crash_us;
              fmutant = false;
            };
          ])
        crash_points)
    preset.Matrix.seeds

let check ?dir (preset : Matrix.preset) ppf =
  let go dir =
    let ok = ref true in
    (* direction 1: clean worlds pass everywhere *)
    List.iter
      (fun p ->
        let o = run_trial p ~dir in
        let label = Obs.Cx.fields_to_string (fields p) in
        if violating o then begin
          ok := false;
          Fmt.pf ppf "filemem %s FAIL (%a)@." label pp_violations
            o.fo_violations
        end
        else
          Fmt.pf ppf "filemem %s ok (%s, epoch %d, %d ckpts)@." label
            o.fo_verdict o.fo_failed_epoch o.fo_checkpoints)
      (grid preset);
    (* direction 2: the planted mutant must break somewhere on the grid *)
    let caught =
      List.find_map
        (fun p ->
          let p = { p with fmutant = true } in
          let o = run_trial p ~dir in
          if violating o then Some (p, o) else None)
        (grid preset)
    in
    (match caught with
    | None ->
        ok := false;
        Fmt.pf ppf
          "filemem mutant Elide_psync NOT caught — oracles toothless@."
    | Some (p, o) -> (
        let reason = Fmt.str "%a" pp_violations o.fo_violations in
        let s = Obs.Cx.minimize (campaign ~dir ()) (p, reason) in
        Fmt.pf ppf "filemem mutant caught (%s); shrunk (%s):@.  %s@." reason
          s.Obs.Cx.reason (String.trim s.Obs.Cx.text);
        match s.Obs.Cx.parity with
        | Ok () -> ()
        | Error m ->
            ok := false;
            Fmt.pf ppf "filemem REPLAY DID NOT REPRODUCE (%s)@." m));
    !ok
  in
  match dir with
  | Some d -> go d
  | None -> Prockill.with_scratch_dir "respct-fmx" go
