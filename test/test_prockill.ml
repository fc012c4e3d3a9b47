(* Prockill harness tests: real fork/SIGKILL, so every case degrades to
   a skip where fork is unavailable. Campaign-scale runs live in the CLI
   (`respct_experiments prockill`) and CI; the suite keeps the process
   count small. *)

let skip_unless_fork () =
  if not (Prockill.fork_available ()) then
    Alcotest.skip ()

(* Trial files of every case go to one scratch directory per case,
   removed when the case returns. *)
let in_scratch f = Prockill.with_scratch_dir "respct-prockill-test" f

(* The printed [# prockill] line parses back to the same witness; the
   retired [k=v;...] syntax is refused. *)
let replay_roundtrip () =
  let c = Prockill_campaign.campaign () in
  let p =
    { Prockill.seed = 7; trial = 123; threads = 3; keyspace = 48;
      kill_delay_us = 4321; mutant = true }
  in
  Alcotest.(check bool)
    "replay string round-trips" true
    (Obs.Cx.of_string c (Obs.Cx.to_string c p) = Ok p);
  Alcotest.(check bool)
    "garbage does not parse" true
    (Result.is_error (Obs.Cx.of_string c "seed=1;bogus"))

let fault_free_trial () =
  skip_unless_fork ();
  let p =
    { Prockill.seed = 101; trial = 0; threads = 2; keyspace = 64;
      kill_delay_us = 4_000; mutant = false }
  in
  let o = in_scratch (fun dir -> Prockill.run_trial p ~dir) in
  Alcotest.(check (list string))
    "no oracle violations on fault-free media" []
    (List.map (Fmt.str "%a" Prockill.pp_violation) o.Prockill.o_violations)

(* Satellite: SIGKILL a recovery pass mid-flight; the final verified
   recovery must still satisfy every oracle (recovery is idempotent). *)
let kill_during_recovery_trial () =
  skip_unless_fork ();
  let p =
    { Prockill.seed = 202; trial = 1; threads = 1; keyspace = 32;
      kill_delay_us = 3_000; mutant = false }
  in
  let o =
    in_scratch (fun dir ->
        Prockill.run_trial ~recovery_kill:true ~recovery_kill_delay_us:300 p
          ~dir)
  in
  Alcotest.(check (list string))
    "idempotent after killed recovery" []
    (List.map (Fmt.str "%a" Prockill.pp_violation) o.Prockill.o_violations)

(* The planted psync-elision mutant must be caught, and the
   counterexample must shrink and replay from its printed line. *)
let mutant_detected () =
  skip_unless_fork ();
  let c = Prockill_campaign.campaign () in
  let rec hunt k =
    if k = 0 then Alcotest.fail "mutant not detected in 8 trials"
    else
      let p =
        { Prockill.seed = 303; trial = 9_000 + k; threads = 2; keyspace = 64;
          kill_delay_us = 5_000; mutant = true }
      in
      match c.Obs.Cx.check p with
      | Obs.Cx.Fail (w, reason) -> (
          let s = Obs.Cx.minimize c (w, reason) in
          match s.Obs.Cx.parity with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s" (String.trim s.Obs.Cx.text) m)
      | Obs.Cx.Pass -> hunt (k - 1)
  in
  hunt 4

(* A body that leaves a trial file behind and raises still gets its
   scratch directory removed. *)
let scratch_dir_removed_on_raise () =
  let made = ref "" in
  (match
     Prockill.with_scratch_dir "respct-prockill-test" (fun dir ->
         made := dir;
         Out_channel.with_open_bin (Filename.concat dir "trial.img") (fun oc ->
             output_string oc "image");
         failwith "trial raised")
   with
  | () -> Alcotest.fail "the body's exception was swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "directory and file removed" false (Sys.file_exists !made)

(* The durability verdict, one row per branch, with no fork: [verdict],
   failed epoch, sealed epoch, recorded digest, the digest walk, and the
   printed violations. A walk that raises [Exit] proves the thunk is not
   called where no digest comparison binds. *)
let verdict_table () =
  let module R = Respct.Recovery in
  let verified verdict fe =
    {
      R.vreport =
        { R.failed_epoch = fe; scanned = 0; rolled_back = []; duration_ns = 0.0;
          rp_ids = [] };
      verdict;
      read_retries = 0;
    }
  in
  let untouched () = raise Exit in
  let broken = R.Unrecoverable [ R.Commit_broken { epoch_word = 0; commit_word = 0 } ] in
  List.iter
    (fun (name, verdict, fe, sealed, recorded, digest, expected) ->
      Alcotest.(check (list string)) name expected
        (List.map (Fmt.str "%a" Prockill.pp_violation)
           (Prockill.violations (verified verdict fe) ~sealed ~recorded ~digest)))
    [
      ( "unrecoverable is the only violation", broken, 1, 3, Some 7, untouched,
        [ Fmt.str "unrecoverable image: %a" R.pp_verdict broken ] );
      ( "lost sealed epoch", R.Clean, 2, 3, None, untouched,
        [ "lost sealed epoch: durable 2 < sealed 3" ] );
      ("digest match", R.Clean, 3, 3, Some 0x2a, (fun () -> 0x2a), []);
      ( "digest mismatch", R.Repaired [], 3, 3, Some 0x2a, (fun () -> 0x2b),
        [ "snapshot mismatch at epoch 3: expected 2a got 2b" ] );
      ( "cyclic chain is a walk failure", R.Clean, 3, 2, Some 1,
        (fun () -> failwith "cycle"),
        [ "oracle walk failed: Failure(\"cycle\")" ] );
      ( "wild pointer is a walk failure", R.Clean, 3, 2, Some 1,
        (fun () -> invalid_arg "wild"),
        [ "oracle walk failed: Invalid_argument(\"wild\")" ] );
      ("inexact image: no walk", R.Salvaged [], 3, 3, Some 1, untouched, []);
      ("no recorded digest: no walk", R.Clean, 3, 3, None, untouched, []);
    ]

let () =
  Alcotest.run "prockill"
    [
      ("replay", [ Alcotest.test_case "round-trip" `Quick replay_roundtrip ]);
      ("verdict", [ Alcotest.test_case "one row per branch" `Quick verdict_table ]);
      ( "scratch",
        [ Alcotest.test_case "removed when the body raises" `Quick
            scratch_dir_removed_on_raise ] );
      ( "trials",
        [
          Alcotest.test_case "fault-free kill" `Quick fault_free_trial;
          Alcotest.test_case "kill during recovery" `Quick
            kill_during_recovery_trial;
        ] );
      ("mutant", [ Alcotest.test_case "psync elision caught" `Quick mutant_detected ]);
    ]
