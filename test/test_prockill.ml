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

let () =
  Alcotest.run "prockill"
    [
      ("replay", [ Alcotest.test_case "round-trip" `Quick replay_roundtrip ]);
      ( "trials",
        [
          Alcotest.test_case "fault-free kill" `Quick fault_free_trial;
          Alcotest.test_case "kill during recovery" `Quick
            kill_during_recovery_trial;
        ] );
      ("mutant", [ Alcotest.test_case "psync elision caught" `Quick mutant_detected ]);
    ]
