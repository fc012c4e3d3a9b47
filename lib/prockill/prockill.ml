(* Real-process SIGKILL crash harness, and the file-image crash world
   and durability verdict it shares with the file crash grid
   (crashtest's Filematrix) and the service's crash drill.

   The simulated crash explorers (crashtest, crashmatrix) interrupt a
   virtual machine at a virtual instant; every bit of "durable" state is
   still process memory, so they can only validate the protocol against the
   simulator's own story of what survives. This harness closes that loop
   with a real operating-system crash: fork a child that runs the
   file-image world against a file-backed {!Filemem} image, SIGKILL it at
   a randomised (seeded, replayable) wall-clock point, reopen the
   surviving file in the parent and hold
   {!Respct.Recovery.run_verified_backend} to the durability verdict
   against the child's progress log.

   Child/parent protocol: the child appends one-line records to a log file,
   each written with a single unbuffered [Unix.write] so the line is in the
   kernel page cache (and thus survives SIGKILL) before the durable
   transition it predicts can happen:

     Q <epoch> <digest> <heads> <cbase>
                          flush for <epoch> completed; digest of the durable
                          map (bucket array <heads>) and counters (base
                          <cbase>) at the quiescent instant, before the seal
     S <epoch>            <epoch>'s commit sealed (logged after the seal); the
                          first S marks steady state (parent may kill)
     F                    workload budget exhausted, clean exit
     E <message>          child failed with an exception

   Ordering gives the oracles their teeth: "Q e" is durable in the log
   before e's seal can reach the medium, so if recovery reports failed
   epoch e it must find a matching digest; "S e" is logged only after the
   seal, so the durable epoch word must never fall below the largest logged
   S (a lost sealed epoch). The planted [Elide_psync] mutant breaks exactly
   this: seals stop reaching the file, and the first post-arm kill trips
   the oracle. *)

module Rng = Simnvm.Rng
module Sched = Simsched.Scheduler
module Recovery = Respct.Recovery

(* ------------------------------------------------------------------ *)
(* Workload geometry: shared by the world (construction) and the parent
   (oracle walk), so everything the parent cannot rederive from the
   file header travels in the Q log lines. *)

let line_words = Simnvm.Addr.default_line_words
let nvm_words = 1 lsl 16
let dram_words = 1 lsl 12
let registry_per_slot = 1024
let buckets = 32
let ncounters = 16
let period_ns = 40_000.0

(* Operations per child worker: enough to outlive the campaign's longest
   kill delay, so every kill lands on a running workload. *)
let child_ops = 1_000_000

type params = {
  seed : int;
  trial : int;
  threads : int;  (** worker threads (slots [0..threads-1]) *)
  keyspace : int;  (** hashmap keys drawn from [0, keyspace) *)
  kill_delay_us : int;  (** wall-clock delay after readiness before SIGKILL *)
  mutant : bool;  (** arm [Filemem.Elide_psync] once steady state is reached *)
}

type geometry = { heads : int; cbase : int }

(* ------------------------------------------------------------------ *)
(* Durable-image digest: the hashmap's logical bindings plus the raw
   counter records, folded into one integer. Both sides compute it the
   same way — the world over [Filemem.persisted] at the quiescent
   instant, the checker over the image after recovery. *)

let digest_with ~read ~line_words ~fuel ~heads ~buckets ~cbase ~ncounters =
  let acc = ref 0x9e3779b9 in
  let mix v = acc := (!acc * 1000003) lxor (v land max_int) land 0x3FFFFFFFFFFFF in
  let bindings =
    Pds.Hashmap_respct.bindings_of ~read ~line_words ~fuel ~heads ~buckets
  in
  List.iter
    (fun (k, v) ->
      mix k;
      mix v)
    bindings;
  for i = 0 to ncounters - 1 do
    mix (read (Respct.Heap.cell_at_words ~line_words cbase i))
  done;
  !acc

let digest ~read g =
  digest_with ~read ~line_words ~fuel:nvm_words ~heads:g.heads ~buckets
    ~cbase:g.cbase ~ncounters

(* ------------------------------------------------------------------ *)
(* The file-image crash world, built once for the prockill child and the
   file crash grid: a seeded multi-threaded workload (hashmap plus
   partitioned InCLL counters, a restart point after every op) over a
   fresh Filemem image. The caller runs [sched] (to completion, or to a
   virtual power cut). *)

type world = { fm : Filemem.t; sched : Sched.t }

let world ~path ~mem_seed ~sched_seed ~worker_seed ~threads ~keyspace ~ops
    ~mutant ~on_flushed ~on_sealed =
  if threads < 1 || threads > ncounters then
    invalid_arg "Prockill.world: threads outside [1, ncounters]";
  let fm =
    Filemem.create
      ~meta:
        { Filemem.max_threads = threads; registry_per_slot; integrity = true }
      {
        Filemem.default_config with
        Filemem.nvm_words;
        dram_words;
        evict_rate = 0.02;
        seed = mem_seed;
      }
      ~path
  in
  let sched = Sched.create ~seed:sched_seed () in
  let rt =
    Respct.Runtime.create
      ~cfg:
        {
          Respct.Runtime.default_config with
          Respct.Runtime.period_ns;
          flusher_pool = 2;
          max_threads = threads;
          registry_per_slot;
          integrity = true;
        }
      (Simsched.Env.make_backend (Filemem.backend fm) sched)
  in
  let structures = ref None in
  let rec built () =
    match !structures with
    | Some s -> s
    | None ->
        Sched.sleep sched 1_000.0;
        built ()
  in
  let remaining = ref threads in
  ignore
    (Sched.spawn ~name:"fw-coord" sched (fun () ->
         let m, cbase = built () in
         let g = { heads = Pds.Hashmap_respct.heads m; cbase } in
         let last = ref 0 in
         let ckpt () =
           Respct.Runtime.run_checkpoint rt ~on_flushed:(fun e ->
               last := e;
               on_flushed g e (digest ~read:(Filemem.persisted fm) g))
         in
         (* One checkpoint before the mutant arms, so it can never corrupt
            setup and every crash lands on a steady-state image; that
            first seal is reported once the mutant is armed. Both that
            step and the sealed line logged after each return are why
            this loop drives [run_checkpoint] itself instead of running
            [Runtime.start]'s. *)
         ckpt ();
         if mutant then Filemem.arm_mutant fm Filemem.Elide_psync;
         on_sealed !last;
         while !remaining > 0 do
           Sched.sleep sched period_ns;
           ckpt ();
           on_sealed !last
         done));
  for w = 0 to threads - 1 do
    ignore
      (Respct.Runtime.spawn ~name:(Printf.sprintf "fw-w%d" w) rt ~slot:w
         (fun _ctx ->
           if w = 0 then begin
             let cbase =
               Respct.Runtime.alloc_incll_array rt ~slot:0 ncounters ~init:0
             in
             structures :=
               Some (Pds.Hashmap_respct.create rt ~slot:0 ~buckets, cbase)
           end;
           (* no readiness gate: workers must keep passing restart points
              or the coordinator's first checkpoint can never quiesce *)
           let m, cbase = built () in
           let rng = Rng.create (worker_seed + (104729 * w)) in
           for _ = 1 to ops do
             (match Rng.int rng 8 with
             | 0 ->
                 ignore
                   (Pds.Hashmap_respct.remove m ~slot:w
                      ~key:(Rng.int rng keyspace))
             | 1 | 2 ->
                 (* Counters are partitioned by slot (worker [w] owns
                    indices congruent to [w]): InCLL updates need the
                    caller to own the variable's lock, and ownership is
                    the cheapest lock there is. *)
                 let k = Rng.int rng (ncounters / threads) in
                 let cell =
                   Respct.Heap.cell_at_words ~line_words cbase
                     (w + (threads * k))
                 in
                 Respct.Runtime.update rt ~slot:w cell
                   (Respct.Runtime.read rt ~slot:w cell + 1)
             | _ ->
                 ignore
                   (Pds.Hashmap_respct.insert m ~slot:w
                      ~key:(Rng.int rng keyspace)
                      ~value:(Rng.bits rng land 0xFFFFF)));
             Respct.Runtime.rp rt ~slot:w 1
           done;
           decr remaining))
  done;
  { fm; sched }

(* ------------------------------------------------------------------ *)
(* The durability verdict: what every file-image crash check — the
   prockill parent, the file crash grid, the service's crash report and
   survivor audit — holds a verified recovery to. *)

type violation =
  | Child_error of string
      (** the child died on an exception or never reached steady state *)
  | Reopen_failed of string
      (** [Filemem.open_existing] rejected a file that a fault-free kill
          must leave openable *)
  | Unrecoverable_image of string
      (** verified recovery failed stop on fault-free media *)
  | Lost_sealed_epoch of { durable : int; sealed : int }
      (** the durable epoch word fell below an epoch known sealed *)
  | Snapshot_mismatch of { epoch : int; expected : int; got : int }
      (** recovery promised an exact image whose digest disagrees with
          the one recorded at the failed epoch's quiescent instant *)
  | Walk_failed of string
      (** the digest walk over the recovered image raised *)

let pp_violation ppf = function
  | Child_error m -> Fmt.pf ppf "child error: %s" m
  | Reopen_failed m -> Fmt.pf ppf "reopen failed: %s" m
  | Unrecoverable_image m -> Fmt.pf ppf "unrecoverable image: %s" m
  | Lost_sealed_epoch { durable; sealed } ->
      Fmt.pf ppf "lost sealed epoch: durable %d < sealed %d" durable sealed
  | Snapshot_mismatch { epoch; expected; got } ->
      Fmt.pf ppf "snapshot mismatch at epoch %d: expected %x got %x" epoch
        expected got
  | Walk_failed m -> Fmt.pf ppf "oracle walk failed: %s" m

(* The digest oracle binds only when recovery promises a bit-exact
   snapshot and a digest was recorded for the failed epoch (a crash
   before the first flush has none); [digest] walks the recovered image
   and may meet a cyclic chain or a wild pointer on a bad one. *)
let violations (v : Recovery.verified) ~sealed ~recorded ~digest =
  match v.Recovery.verdict with
  | Recovery.Unrecoverable _ as verdict ->
      [ Unrecoverable_image (Fmt.str "%a" Recovery.pp_verdict verdict) ]
  | verdict -> (
      let fe = v.Recovery.vreport.Recovery.failed_epoch in
      (if fe < sealed then [ Lost_sealed_epoch { durable = fe; sealed } ]
       else [])
      @
      match recorded with
      | Some expected when Recovery.exact_image verdict -> (
          match digest () with
          | got when got = expected -> []
          | got -> [ Snapshot_mismatch { epoch = fe; expected; got } ]
          | exception e -> [ Walk_failed (Printexc.to_string e) ])
      | _ -> [])

(* ------------------------------------------------------------------ *)
(* Child side. Runs after [Unix.fork] in the child process; never
   returns (always [Unix._exit]). *)

let run_child (p : params) ~img ~logpath : unit =
  let lfd =
    Unix.openfile logpath [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let log fmt =
    Printf.ksprintf
      (fun s ->
        let line = s ^ "\n" in
        ignore (Unix.write_substring lfd line 0 (String.length line)))
      fmt
  in
  (try
     let w =
       world ~path:img
         ~mem_seed:(p.seed + (1000003 * p.trial))
         ~sched_seed:(p.seed + p.trial)
         ~worker_seed:(p.seed + (7919 * p.trial))
         ~threads:p.threads ~keyspace:p.keyspace ~ops:child_ops
         ~mutant:p.mutant
         ~on_flushed:(fun g e d -> log "Q %d %d %d %d" e d g.heads g.cbase)
         ~on_sealed:(log "S %d")
     in
     ignore (Sched.run w.sched);
     log "F";
     Filemem.close w.fm;
     Unix._exit 0
   with e -> log "E %s" (Printexc.to_string e));
  Unix._exit 2

(* ------------------------------------------------------------------ *)
(* Progress-log parsing (parent side). Only newline-terminated lines
   count: the kill can tear the last line mid-write, and a torn line
   must not fabricate a claim. Dropping it is always sound — the log
   under-approximates the child's durable progress, which is the safe
   direction for both oracles. *)

type parsed = {
  pl_digests : (int * (int * geometry)) list;  (** Q lines: epoch -> digest *)
  pl_sealed : int;  (** largest S epoch, [-1] if none (not yet steady) *)
  pl_finished : bool;
  pl_error : string option;
}

let parse_log s =
  let rec complete = function [] | [ _ ] -> [] | x :: tl -> x :: complete tl in
  let lines = complete (String.split_on_char '\n' s) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ "F" ] -> { acc with pl_finished = true }
      | [ "Q"; e; d; h; c ] -> (
          match List.map int_of_string_opt [ e; d; h; c ] with
          | [ Some e; Some d; Some heads; Some cbase ] ->
              {
                acc with
                pl_digests = (e, (d, { heads; cbase })) :: acc.pl_digests;
              }
          | _ -> acc)
      | [ "S"; e ] -> (
          match int_of_string_opt e with
          | Some e -> { acc with pl_sealed = max acc.pl_sealed e }
          | None -> acc)
      | "E" :: rest ->
          { acc with pl_error = Some (String.concat " " rest) }
      | _ -> acc)
    { pl_digests = []; pl_sealed = -1; pl_finished = false; pl_error = None }
    lines

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

type outcome = {
  o_params : params;
  o_killed : bool;  (** the child died by our SIGKILL (not a clean exit) *)
  o_finished : bool;  (** the child logged F before dying *)
  o_recovery_killed : bool;
      (** a recovery pass was itself SIGKILLed before the final verified
          recovery (idempotence sub-trial) *)
  o_verdict : string;  (** clean / repaired / salvaged / unrecoverable / none *)
  o_failed_epoch : int;
  o_sealed_max : int;
  o_truncated : bool;
  o_violations : violation list;
}

let verdict_name = function
  | Recovery.Clean -> "clean"
  | Recovery.Repaired _ -> "repaired"
  | Recovery.Salvaged _ -> "salvaged"
  | Recovery.Unrecoverable _ -> "unrecoverable"

let layout_of fm =
  let meta = Filemem.meta fm in
  let cfg = Filemem.config fm in
  Respct.Layout.v ~integrity:meta.Filemem.integrity
    ~line_words:cfg.Filemem.line_words ~nvm_words:cfg.Filemem.nvm_words
    ~max_threads:meta.Filemem.max_threads
    ~registry_per_slot:meta.Filemem.registry_per_slot ()

(* Reopen the surviving image and hold its verified recovery to the
   verdict, the digest walked with the geometry the child logged. *)
let check_image (o : outcome) ~img ~(pl : parsed) : outcome =
  match Filemem.open_existing ~path:img () with
  | Error e ->
      let m = Fmt.str "%a" Filemem.pp_open_error e in
      { o with o_violations = [ Reopen_failed m ] }
  | Ok fm ->
      Fun.protect
        ~finally:(fun () -> Filemem.close fm)
        (fun () ->
          let v =
            Recovery.run_verified_backend ~layout:(layout_of fm)
              (Filemem.backend fm)
          in
          let fe = v.Recovery.vreport.Recovery.failed_epoch in
          let recorded = List.assoc_opt fe pl.pl_digests in
          {
            o with
            o_verdict = verdict_name v.Recovery.verdict;
            o_failed_epoch = fe;
            o_truncated = Filemem.was_truncated fm;
            o_violations =
              violations v ~sealed:pl.pl_sealed
                ~recorded:(Option.map fst recorded) ~digest:(fun () ->
                  digest ~read:(Filemem.persisted fm)
                    (snd (Option.get recorded)));
          })

(* ------------------------------------------------------------------ *)
(* Trial driver (parent side). *)

let sigkill_pid pid =
  try Unix.kill pid Sys.sigkill
  with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

let wait_ready ~logpath ~timeout =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let pl = parse_log (read_file logpath) in
    if pl.pl_sealed >= 0 then true
    else if Option.is_some pl.pl_error then false
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Unix.sleepf 0.0005;
      go ()
    end
  in
  go ()

(* Satellite oracle: SIGKILL a recovery pass itself, mid-flight, and let
   the final verified recovery in the parent prove recovery idempotent —
   a partially applied rollback (each line journalled, hence line-atomic)
   must recover to the same verdict and image as an untouched one. *)
let kill_during_recovery ~img ~delay_us =
  match Unix.fork () with
  | 0 ->
      (try
         match Filemem.open_existing ~path:img () with
         | Ok fm ->
             ignore
               (Recovery.run_verified_backend ~layout:(layout_of fm)
                  (Filemem.backend fm))
         | Error _ -> ()
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.sleepf (float_of_int delay_us *. 1e-6);
      sigkill_pid pid;
      ignore (Unix.waitpid [] pid)

let run_trial ?(recovery_kill = false) ?(recovery_kill_delay_us = 500)
    (p : params) ~dir : outcome =
  let tag = Printf.sprintf "pk-%d-%d" (Unix.getpid ()) p.trial in
  let img = Filename.concat dir (tag ^ ".img") in
  let logpath = Filename.concat dir (tag ^ ".log") in
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ img; logpath ]
  in
  cleanup ();
  match Unix.fork () with
  | 0 ->
      run_child p ~img ~logpath;
      assert false
  | pid ->
      Fun.protect ~finally:cleanup (fun () ->
          let ready = wait_ready ~logpath ~timeout:30.0 in
          if ready then Unix.sleepf (float_of_int p.kill_delay_us *. 1e-6);
          sigkill_pid pid;
          let _, status = Unix.waitpid [] pid in
          let pl = parse_log (read_file logpath) in
          let o =
            {
              o_params = p;
              o_killed = status = Unix.WSIGNALED Sys.sigkill;
              o_finished = pl.pl_finished;
              o_recovery_killed = false;
              o_verdict = "none";
              o_failed_epoch = -1;
              o_sealed_max = pl.pl_sealed;
              o_truncated = false;
              o_violations =
                Option.to_list (Option.map (fun m -> Child_error m) pl.pl_error)
                @
                if ready then []
                else [ Child_error "child never reached steady state" ];
            }
          in
          if o.o_violations <> [] then o
          else begin
            let rk = recovery_kill && o.o_killed in
            if rk then
              kill_during_recovery ~img ~delay_us:recovery_kill_delay_us;
            check_image { o with o_recovery_killed = rk } ~img ~pl
          end)

let fork_available () =
  if not Sys.unix then false
  else
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        true
    | exception Unix.Unix_error _ -> false

(* ------------------------------------------------------------------ *)
(* Scratch directories: a fresh [<prefix>-<pid>-<random>] directory
   under /dev/shm when writable (else the system temp dir), emptied and
   removed when [f] returns or raises. *)

let with_scratch_dir prefix f =
  let base =
    let shm = "/dev/shm" in
    if
      Sys.file_exists shm && Sys.is_directory shm
      && (try
            Unix.access shm [ Unix.W_OK ];
            true
          with Unix.Unix_error _ -> false)
    then shm
    else Filename.get_temp_dir_name ()
  in
  let d =
    Filename.temp_dir ~temp_dir:base
      (Printf.sprintf "%s-%d-" prefix (Unix.getpid ()))
      ""
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat d e) with Sys_error _ -> ())
        (try Sys.readdir d with Sys_error _ -> [||]);
      try Unix.rmdir d with Unix.Unix_error _ -> ())
    (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* JSON: one trial (the campaign document is {!Prockill_campaign}'s). *)

let json_of_outcome (o : outcome) : Obs.Json.t =
  let p = o.o_params in
  Obs.Json.Obj
    [
      ("trial", Obs.Json.Int p.trial);
      ("threads", Obs.Json.Int p.threads);
      ("keyspace", Obs.Json.Int p.keyspace);
      ("delay_us", Obs.Json.Int p.kill_delay_us);
      ("mutant", Obs.Json.Bool p.mutant);
      ("killed", Obs.Json.Bool o.o_killed);
      ("finished", Obs.Json.Bool o.o_finished);
      ("recovery_killed", Obs.Json.Bool o.o_recovery_killed);
      ("verdict", Obs.Json.String o.o_verdict);
      ("failed_epoch", Obs.Json.Int o.o_failed_epoch);
      ("sealed_max", Obs.Json.Int o.o_sealed_max);
      ("truncated", Obs.Json.Bool o.o_truncated);
      ( "violations",
        Obs.Json.List
          (List.map
             (fun v -> Obs.Json.String (Fmt.str "%a" pp_violation v))
             o.o_violations) );
    ]
