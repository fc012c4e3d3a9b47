(* Crash-matrix dimension over Filemem images.

   The simulator dimensions enumerate adversarial write-back images from
   the cache model; a Filemem world has no cache model to enumerate, but
   it has the real thing the prockill harness checks statistically: a
   durable file image whose psync is load-bearing. This dimension makes
   that check deterministic: prockill's file-image world, a virtual power
   cut at a chosen instant, then verified recovery held to prockill's
   durability verdict (no lost sealed epoch, and an exact snapshot
   whenever the verdict promises one).

   Unlike prockill the crash instant is virtual, so counterexamples
   shrink exactly (no statistical retries) and replay byte-for-byte. The
   planted [Elide_psync] mutant must break — proving the oracles (and
   the journalled write-back they guard) load-bearing. *)

type params = {
  fseed : int;
  fthreads : int;
  fkeyspace : int;
  fops : int;  (* operations per worker *)
  fcrash_us : int;  (* virtual power-cut instant *)
  fmutant : bool;  (* arm Elide_psync after the first checkpoint *)
}

type outcome = {
  fo_params : params;
  fo_verdict : string;
  fo_failed_epoch : int;
  fo_sealed_max : int;
  fo_checkpoints : int;
  fo_violations : Prockill.violation list;
}

let run_trial (p : params) ~dir : outcome =
  let path =
    Filename.concat dir
      (Printf.sprintf "fmx-%d-%d-%d-%d-%d.img" p.fseed p.fthreads p.fops
         p.fcrash_us
         (if p.fmutant then 1 else 0))
  in
  let checkpoints = ref 0 and sealed_max = ref 0 and geometry = ref None in
  let digests : (int, int) Hashtbl.t = Hashtbl.create 32 in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let w =
    Prockill.world ~path ~mem_seed:p.fseed ~sched_seed:p.fseed
      ~worker_seed:p.fseed ~threads:p.fthreads ~keyspace:p.fkeyspace
      ~ops:p.fops ~mutant:p.fmutant
      ~on_flushed:(fun g e d ->
        geometry := Some g;
        Hashtbl.replace digests e d)
      ~on_sealed:(fun e ->
        incr checkpoints;
        sealed_max := max !sealed_max e)
  in
  Fun.protect ~finally:(fun () -> Filemem.close w.Prockill.fm) @@ fun () ->
  let fm = w.Prockill.fm and sched = w.Prockill.sched in
  Simsched.Scheduler.set_crash_at sched (float_of_int p.fcrash_us *. 1_000.0);
  ignore (Simsched.Scheduler.run sched);
  (* the power cut: volatile mirror dies, the durable image survives *)
  Filemem.crash fm;
  let v =
    Respct.Recovery.run_verified_backend ~layout:(Prockill.layout_of fm)
      (Filemem.backend fm)
  in
  let fe = v.Respct.Recovery.vreport.Respct.Recovery.failed_epoch in
  {
    fo_params = p;
    fo_verdict =
      Fmt.str "%a" Respct.Recovery.pp_verdict v.Respct.Recovery.verdict;
    fo_failed_epoch = fe;
    fo_sealed_max = !sealed_max;
    fo_checkpoints = !checkpoints;
    fo_violations =
      Prockill.violations v ~sealed:!sealed_max
        ~recorded:(Hashtbl.find_opt digests fe)
        ~digest:(fun () ->
          Prockill.digest ~read:(Filemem.persisted fm) (Option.get !geometry));
  }

let violating o = o.fo_violations <> []
let pp_violations = Fmt.(list ~sep:comma Prockill.pp_violation)

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
  let* () =
    known fs [ "seed"; "threads"; "keyspace"; "ops"; "crash_us"; "mutant" ]
  in
  let* fseed = req fs "seed" int in
  let* fthreads = req fs "threads" (range 1 Prockill.ncounters) in
  let* fkeyspace = req fs "keyspace" (range 1 max_int) in
  let* fops = req fs "ops" nat in
  let* fcrash_us = req fs "crash_us" nat in
  let* fmutant = req fs "mutant" bit in
  Ok { fseed; fthreads; fkeyspace; fops; fcrash_us; fmutant }

(* Trial files go to [dir], or to a scratch directory made and removed
   around [f]. *)
let in_dir dir f =
  match dir with
  | Some d -> f d
  | None -> Prockill.with_scratch_dir "respct-fmx" f

let campaign ?dir () : params Obs.Cx.campaign =
  {
    Obs.Cx.tag = "filematrix";
    print = (fun p -> ([], fields p));
    decode;
    check =
      (fun p ->
        let o = in_dir dir (fun dir -> run_trial p ~dir) in
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
      List.map
        (fun fcrash_us ->
          {
            fseed = sched_seed + (1_000_003 * mem_seed);
            fthreads = 2;
            fkeyspace = 96;
            fops = preset.Matrix.map_ops * 20;
            fcrash_us;
            fmutant = false;
          })
        crash_points)
    preset.Matrix.seeds

(* Direction 1: a clean world passes its grid point. *)
let grid_job ?dir p () =
  let o = in_dir dir (fun dir -> run_trial p ~dir) in
  let label = Obs.Cx.fields_to_string (fields p) in
  if violating o then
    Obs.Jobs.result ~ok:false
      (Fmt.str "filemem %s FAIL (%a)@." label pp_violations o.fo_violations)
  else
    Obs.Jobs.result ~ok:true
      (Fmt.str "filemem %s ok (%s, epoch %d, %d ckpts)@." label o.fo_verdict
         o.fo_failed_epoch o.fo_checkpoints)

(* Direction 2: the planted mutant breaks somewhere on the grid. *)
let mutant_job ?dir preset () =
  in_dir dir @@ fun dir ->
  match
    List.find_map
      (fun p ->
        let p = { p with fmutant = true } in
        let o = run_trial p ~dir in
        if violating o then Some (p, o) else None)
      (grid preset)
  with
  | None ->
      Obs.Jobs.result ~ok:false
        "filemem mutant Elide_psync NOT caught — oracles toothless\n"
  | Some (p, o) ->
      let reason = Fmt.str "%a" pp_violations o.fo_violations in
      let s = Obs.Cx.minimize (campaign ~dir ()) (p, reason) in
      Obs.Jobs.result ~ok:(s.Obs.Cx.parity = Ok ())
        (Fmt.str "filemem mutant caught (%s); shrunk (%s):@.  %s@." reason
           s.Obs.Cx.reason (String.trim s.Obs.Cx.text)
        ^
        match s.Obs.Cx.parity with
        | Ok () -> ""
        | Error m -> Fmt.str "filemem REPLAY DID NOT REPRODUCE (%s)@." m)

let jobs ?dir preset =
  {
    Obs.Jobs.jobs =
      Array.of_list
        (List.map (grid_job ?dir) (grid preset) @ [ mutant_job ?dir preset ]);
    close = Obs.Jobs.concat;
  }
