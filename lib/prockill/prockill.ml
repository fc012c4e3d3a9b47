(* Real-process SIGKILL crash harness.

   The simulated crash explorers (crashtest, crashmatrix) interrupt a
   virtual machine at a virtual instant; every bit of "durable" state is
   still process memory, so they can only validate the protocol against the
   simulator's own story of what survives. This harness closes that loop
   with a real operating-system crash: fork a child that runs a seeded
   ResPCT workload against a file-backed {!Filemem} image, SIGKILL it at a
   randomised (seeded, replayable) wall-clock point, reopen the surviving
   file in the parent and run {!Respct.Recovery.run_verified_backend} plus
   the durability oracles against the child's progress log.

   Child/parent protocol: the child appends one-line records to a log file,
   each written with a single unbuffered [Unix.write] so the line is in the
   kernel page cache (and thus survives SIGKILL) before the durable
   transition it predicts can happen:

     H <heads> <cbase>    workload geometry (map bucket array, counter base)
     R                    steady state reached (parent may kill from here)
     Q <epoch> <digest>   flush for <epoch> completed; durable-image digest
                          taken at the quiescent instant, before the seal
     S <epoch>            <epoch>'s commit sealed (logged after the seal)
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
module Recovery = Respct.Recovery

(* ------------------------------------------------------------------ *)
(* Workload geometry: shared by child (construction) and parent
   (oracle walk), so everything the parent cannot rederive from the
   file header travels in the H log line. *)

let line_words = Simnvm.Addr.default_line_words
let nvm_words = 1 lsl 16
let dram_words = 1 lsl 12
let registry_per_slot = 1024
let buckets = 32
let ncounters = 16
let period_ns = 40_000.0
let checkpoint_budget = 20_000

type params = {
  seed : int;
  trial : int;
  threads : int;  (** worker threads (slots [0..threads-1]) *)
  keyspace : int;  (** hashmap keys drawn from [0, keyspace) *)
  kill_delay_us : int;  (** wall-clock delay after readiness before SIGKILL *)
  mutant : bool;  (** arm [Filemem.Elide_psync] once steady state is reached *)
}

(* ------------------------------------------------------------------ *)
(* Durable-image digest: the hashmap's logical bindings plus the raw
   counter records, folded into one integer. Both sides compute it the
   same way — the child over [Filemem.persisted] at the quiescent
   instant, the parent over the reopened file after recovery. *)

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

let digest ~read ~heads ~cbase =
  digest_with ~read ~line_words ~fuel:nvm_words ~heads ~buckets ~cbase
    ~ncounters

(* ------------------------------------------------------------------ *)
(* Child side. Runs after [Unix.fork] in the child process; never
   returns (always [Unix._exit]). *)

let log_to fd s =
  let line = s ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line))

let run_child (p : params) ~img ~logpath : unit =
  let lfd =
    Unix.openfile logpath [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let log = log_to lfd in
  (try
     let cfg =
       {
         Filemem.default_config with
         Filemem.nvm_words;
         Filemem.dram_words;
         Filemem.evict_rate = 0.02;
         Filemem.seed = p.seed + (1000003 * p.trial);
       }
     in
     let meta =
       {
         Filemem.max_threads = p.threads;
         Filemem.registry_per_slot = registry_per_slot;
         Filemem.integrity = true;
       }
     in
     let fm = Filemem.create ~meta cfg ~path:img in
     let sched = Simsched.Scheduler.create ~seed:(p.seed + p.trial) () in
     let env = Simsched.Env.make_backend (Filemem.backend fm) sched in
     let rcfg =
       {
         Respct.Runtime.default_config with
         Respct.Runtime.period_ns;
         Respct.Runtime.flusher_pool = 2;
         Respct.Runtime.max_threads = p.threads;
         Respct.Runtime.registry_per_slot = registry_per_slot;
         Respct.Runtime.integrity = true;
       }
     in
     let rt = Respct.Runtime.create ~cfg:rcfg env in
     let structures = ref None in
     let stop = ref false in
     ignore
       (Simsched.Scheduler.spawn ~name:"pk-coord" sched (fun () ->
            while Option.is_none !structures do
              Simsched.Scheduler.sleep sched 1_000.0
            done;
            let m, cbase = Option.get !structures in
            let heads = Pds.Hashmap_respct.heads m in
            let dig () = digest ~read:(Filemem.persisted fm) ~heads ~cbase in
            log (Printf.sprintf "H %d %d" heads cbase);
            let last = ref 0 in
            let ckpt () =
              Respct.Runtime.run_checkpoint rt ~on_flushed:(fun e ->
                  last := e;
                  log (Printf.sprintf "Q %d %d" e (dig ())));
              log (Printf.sprintf "S %d" !last)
            in
            (* One checkpoint before declaring readiness, so the mutant
               (armed below, after the seal) can never corrupt setup and
               every kill lands on a steady-state image. *)
            ckpt ();
            if p.mutant then Filemem.arm_mutant fm Filemem.Elide_psync;
            log "R";
            let n = ref 0 in
            while !n < checkpoint_budget do
              incr n;
              Simsched.Scheduler.sleep sched period_ns;
              ckpt ()
            done;
            stop := true));
     for w = 0 to p.threads - 1 do
       let wseed = p.seed + (7919 * p.trial) + (104729 * w) in
       ignore
         (Respct.Runtime.spawn ~name:(Printf.sprintf "pk-w%d" w) rt ~slot:w
            (fun _ctx ->
              if w = 0 then begin
                let cbase =
                  Respct.Runtime.alloc_incll_array rt ~slot:0 ncounters ~init:0
                in
                let m = Pds.Hashmap_respct.create rt ~slot:0 ~buckets in
                structures := Some (m, cbase)
              end;
              while Option.is_none !structures do
                Simsched.Scheduler.sleep sched 1_000.0
              done;
              let m, cbase = Option.get !structures in
              let rng = Rng.create wseed in
              while not !stop do
                (match Rng.int rng 8 with
                | 0 ->
                    ignore
                      (Pds.Hashmap_respct.remove m ~slot:w
                         ~key:(Rng.int rng p.keyspace))
                | 1 | 2 ->
                    (* Counters are partitioned by slot (worker [w] owns
                       indices congruent to [w]): InCLL updates need the
                       caller to own the variable's lock, and ownership is
                       the cheapest lock there is. *)
                    let k = Rng.int rng (ncounters / p.threads) in
                    let cell =
                      Respct.Heap.cell_at_words ~line_words cbase
                        (w + (p.threads * k))
                    in
                    Respct.Runtime.update rt ~slot:w cell
                      (Respct.Runtime.read rt ~slot:w cell + 1)
                | _ ->
                    ignore
                      (Pds.Hashmap_respct.insert m ~slot:w
                         ~key:(Rng.int rng p.keyspace)
                         ~value:(Rng.bits rng land 0xFFFFF)));
                Respct.Runtime.rp rt ~slot:w 1
              done))
     done;
     (match Simsched.Scheduler.run sched with
     | Simsched.Scheduler.Completed | Simsched.Scheduler.Crash_interrupt _ ->
         ());
     log "F";
     Filemem.close fm;
     Unix._exit 0
   with e -> log ("E " ^ Printexc.to_string e));
  Unix._exit 2

(* ------------------------------------------------------------------ *)
(* Progress-log parsing (parent side). Only newline-terminated lines
   count: the kill can tear the last line mid-write, and a torn line
   must not fabricate a claim. Dropping it is always sound — the log
   under-approximates the child's durable progress, which is the safe
   direction for both oracles. *)

type parsed = {
  pl_geom : (int * int) option;  (** H line: heads, counter base *)
  pl_ready : bool;
  pl_digests : (int * int) list;  (** Q lines: epoch -> digest *)
  pl_sealed : int;  (** largest S epoch, [-1] if none *)
  pl_finished : bool;
  pl_error : string option;
}

let parse_log s =
  let rec complete = function [] | [ _ ] -> [] | x :: tl -> x :: complete tl in
  let lines = complete (String.split_on_char '\n' s) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ "R" ] -> { acc with pl_ready = true }
      | [ "F" ] -> { acc with pl_finished = true }
      | [ "H"; a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some heads, Some cbase -> { acc with pl_geom = Some (heads, cbase) }
          | _ -> acc)
      | [ "Q"; e; d ] -> (
          match (int_of_string_opt e, int_of_string_opt d) with
          | Some e, Some d -> { acc with pl_digests = (e, d) :: acc.pl_digests }
          | _ -> acc)
      | [ "S"; e ] -> (
          match int_of_string_opt e with
          | Some e -> { acc with pl_sealed = max acc.pl_sealed e }
          | None -> acc)
      | "E" :: rest ->
          { acc with pl_error = Some (String.concat " " rest) }
      | _ -> acc)
    {
      pl_geom = None;
      pl_ready = false;
      pl_digests = [];
      pl_sealed = -1;
      pl_finished = false;
      pl_error = None;
    }
    lines

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* ------------------------------------------------------------------ *)
(* Oracles. *)

type violation =
  | Child_error of string
      (** the child died on an exception or never reached steady state *)
  | Reopen_failed of string
      (** [Filemem.open_existing] rejected a file that a fault-free kill
          must leave openable *)
  | Unrecoverable_image of string
      (** verified recovery failed stop on fault-free media *)
  | Lost_sealed_epoch of { durable : int; sealed : int }
      (** the durable epoch word fell below an epoch the child logged as
          sealed *)
  | Snapshot_mismatch of { epoch : int; expected : int; got : int }
      (** recovery promised an exact image whose digest disagrees with
          the child's quiescent-instant digest for the failed epoch *)
  | Oracle_walk_failed of { epoch : int; msg : string }
      (** the recovered image could not even be walked (cyclic chain)
          despite an exact-image verdict *)

let pp_violation ppf = function
  | Child_error m -> Fmt.pf ppf "child error: %s" m
  | Reopen_failed m -> Fmt.pf ppf "reopen failed: %s" m
  | Unrecoverable_image m -> Fmt.pf ppf "unrecoverable image: %s" m
  | Lost_sealed_epoch { durable; sealed } ->
      Fmt.pf ppf "lost sealed epoch: durable epoch %d < logged seal %d" durable
        sealed
  | Snapshot_mismatch { epoch; expected; got } ->
      Fmt.pf ppf "snapshot mismatch at epoch %d: logged digest %d, recovered %d"
        epoch expected got
  | Oracle_walk_failed { epoch; msg } ->
      Fmt.pf ppf "oracle walk failed at epoch %d: %s" epoch msg

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

(* Reopen the surviving image and hold it to the oracles. *)
let check_image (p : params) ~img ~(pl : parsed) ~killed ~recovery_killed
    ~extra : outcome =
  let base =
    {
      o_params = p;
      o_killed = killed;
      o_finished = pl.pl_finished;
      o_recovery_killed = recovery_killed;
      o_verdict = "none";
      o_failed_epoch = -1;
      o_sealed_max = pl.pl_sealed;
      o_truncated = false;
      o_violations = extra;
    }
  in
  match Filemem.open_existing ~path:img () with
  | Error e ->
      {
        base with
        o_violations =
          base.o_violations @ [ Reopen_failed (Fmt.str "%a" Filemem.pp_open_error e) ];
      }
  | Ok fm ->
      Fun.protect
        ~finally:(fun () -> Filemem.close fm)
        (fun () ->
          let v =
            Recovery.run_verified_backend ~layout:(layout_of fm)
              (Filemem.backend fm)
          in
          let fe = v.Recovery.vreport.Recovery.failed_epoch in
          let viol = ref [] in
          (match v.Recovery.verdict with
          | Recovery.Unrecoverable _ ->
              viol :=
                [ Unrecoverable_image
                    (Fmt.str "%a" Recovery.pp_verdict v.Recovery.verdict) ]
          | _ -> ());
          if pl.pl_sealed >= 0 && fe < pl.pl_sealed then
            viol :=
              !viol @ [ Lost_sealed_epoch { durable = fe; sealed = pl.pl_sealed } ];
          (* The digest oracle only binds when recovery promises a
             bit-exact snapshot AND the child durably predicted this
             epoch's digest (Q is logged before the seal, so a durably
             sealed epoch always has one; epoch 0 — a kill before the
             first seal — has none). *)
          (if Recovery.exact_image v.Recovery.verdict then
             match (pl.pl_geom, List.assoc_opt fe pl.pl_digests) with
             | Some (heads, cbase), Some expected -> (
                 match digest ~read:(Filemem.persisted fm) ~heads ~cbase with
                 | got ->
                     if got <> expected then
                       viol :=
                         !viol
                         @ [ Snapshot_mismatch { epoch = fe; expected; got } ]
                 | exception Failure msg ->
                     viol :=
                       !viol @ [ Oracle_walk_failed { epoch = fe; msg } ])
             | _ -> ());
          {
            base with
            o_verdict = verdict_name v.Recovery.verdict;
            o_failed_epoch = fe;
            o_truncated = Filemem.was_truncated fm;
            o_violations = base.o_violations @ !viol;
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
    if pl.pl_ready then true
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
          let killed =
            match status with
            | Unix.WSIGNALED s -> s = Sys.sigkill
            | _ -> false
          in
          let pl = parse_log (read_file logpath) in
          let extra =
            (match pl.pl_error with Some m -> [ Child_error m ] | None -> [])
            @
            if ready then []
            else [ Child_error "child never reached steady state" ]
          in
          if extra <> [] then
            {
              o_params = p;
              o_killed = killed;
              o_finished = pl.pl_finished;
              o_recovery_killed = false;
              o_verdict = "none";
              o_failed_epoch = -1;
              o_sealed_max = pl.pl_sealed;
              o_truncated = false;
              o_violations = extra;
            }
          else begin
            let rk = recovery_kill && killed in
            if rk then
              kill_during_recovery ~img ~delay_us:recovery_kill_delay_us;
            check_image p ~img ~pl ~killed ~recovery_killed:rk ~extra:[]
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
   under /dev/shm when writable (else the system temp dir), removed when
   [f] returns or raises. *)

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
    ~finally:(fun () -> try Unix.rmdir d with Unix.Unix_error _ -> ())
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
