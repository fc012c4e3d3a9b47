(* Persistency-model litmus validation (DESIGN.md section 13).

   Three layers:
   - golden allowed-state sets for every corpus entry and variant, so a
     change to the axiomatic evaluator is a visible diff here;
   - differential soundness: observed post-crash outcomes from both
     executable worlds (kernel / ref, each the compiled program stepped
     over that world's memory) lie inside the axiomatic set, on the
     corpus and on >= 500 fuzzed programs per world, with failures
     printed as replayable counterexample text;
   - completeness on an exhaustive small family: the set of outcomes
     the reference model can reach EQUALS the axiomatic set;
   plus the planted kernel mutant, which the fuzzer must detect, shrink
   and replay. *)

module Axiom = Litmus.Axiom
module Corpus = Litmus.Corpus
module Harness = Litmus.Harness
module Prog = Litmus.Prog
module World = Litmus.World

let entry name =
  match Corpus.find name with
  | Some e -> e
  | None -> Alcotest.failf "corpus entry %s missing" name

(* --- golden allowed-state sets -------------------------------------- *)

(* Pinned output of [Axiom.pp_outcomes] per (entry, variant): the
   worked examples of DESIGN.md section 13. [litmus --corpus -v] prints
   the same strings. *)
let goldens =
  [
    ("sb", Axiom.Pcso, "{(x=1,y=1)}");
    ("sb", Axiom.Eadr, "{(x=1,y=1)}");
    ("sb", Axiom.Ablation, "{(x=1,y=1)}");
    ("mp-fenced", Axiom.Pcso, "{(d=0,f=0) (d=1,f=0) (d=1,f=1)}");
    ("mp-fenced", Axiom.Ablation, "{(d=0,f=0) (d=1,f=0) (d=1,f=1)}");
    ( "mp-unfenced",
      Axiom.Pcso,
      "{(d=0,f=0) (d=0,f=1) (d=1,f=0) (d=1,f=1)}" );
    ("mp-unfenced", Axiom.Eadr, "{(d=0,f=0) (d=1,f=0) (d=1,f=1)}");
    (* the PCSO payoff: same-line MP forbids the lost-data outcome
       (d=0,f=1) that the word-granular ablation admits *)
    ("mp-same-line", Axiom.Pcso, "{(d=0,f=0) (d=1,f=0) (d=1,f=1)}");
    ( "mp-same-line",
      Axiom.Ablation,
      "{(d=0,f=0) (d=0,f=1) (d=1,f=0) (d=1,f=1)}" );
    (* same-line WAR: persisted states are exactly the prefix-closed
       snapshots of the store order *)
    ( "incll-war",
      Axiom.Pcso,
      "{(x=0,y=0) (x=1,y=0) (x=1,y=1) (x=2,y=1)}" );
    ("incll-war", Axiom.Eadr, "{(x=2,y=1)}");
    ( "incll-war",
      Axiom.Ablation,
      "{(x=0,y=0) (x=0,y=1) (x=1,y=0) (x=1,y=1) (x=2,y=0) (x=2,y=1)}" );
    ("commit-crash", Axiom.Pcso, "{(d=1,c=1)}");
    ("faa-contend", Axiom.Pcso, "{(x=0) (x=1) (x=2)}");
    ("pwb-no-psync", Axiom.Pcso, "{(x=1)}");
    (* lazy pwb: issued but unapplied write-back may be lost *)
    ("pwb-no-psync", Axiom.Pcso_lazy, "{(x=0) (x=1)}");
    ("eadr-noloss", Axiom.Eadr, "{(x=1,y=1)}");
    ( "eadr-noloss",
      Axiom.Pcso,
      "{(x=0,y=0) (x=0,y=1) (x=1,y=0) (x=1,y=1)}" );
    ("ablation-split", Axiom.Pcso, "{(x=0,y=0) (x=1,y=0) (x=1,y=1)}");
    ( "ablation-split",
      Axiom.Ablation,
      "{(x=0,y=0) (x=0,y=1) (x=1,y=0) (x=1,y=1)}" );
    ( "mp-chain",
      Axiom.Pcso,
      "{(a=0,b=0,c=0) (a=0,b=0,c=1) (a=1,b=0,c=0) (a=1,b=0,c=1) \
       (a=1,b=1,c=0) (a=1,b=1,c=1)}" );
  ]

let golden_allowed () =
  List.iter
    (fun (name, variant, want) ->
      let e = entry name in
      let r = Axiom.allowed ~variant e.Corpus.e_prog in
      Alcotest.(check bool)
        (Fmt.str "%s/%s complete" name (Axiom.variant_name variant))
        true r.Axiom.complete;
      Alcotest.(check string)
        (Fmt.str "%s/%s allowed set" name (Axiom.variant_name variant))
        want
        (Fmt.str "%a"
           (Axiom.pp_outcomes (Prog.locs e.Corpus.e_prog))
           r.Axiom.outcomes))
    goldens

(* Eadr <= Pcso <= Pcso_lazy and Pcso <= Ablation, on every entry: the
   variant lattice of DESIGN.md section 13. [failed_inclusions] is the
   CLI's check; on incll-war, whose eadr, pcso and ablation sets all
   differ, the lattice is also checked directly, so the case does not
   only trust that function. *)
let variant_inclusions () =
  List.iter
    (fun e ->
      Alcotest.(check (list (pair string string)))
        (e.Corpus.e_name ^ ": failed inclusions")
        []
        (List.map
           (fun (a, b) -> (Axiom.variant_name a, Axiom.variant_name b))
           (Axiom.failed_inclusions e.Corpus.e_prog)))
    Corpus.all;
  let p = (entry "incll-war").Corpus.e_prog in
  let set v = (Axiom.allowed ~variant:v p).Axiom.outcomes in
  let incl name want a b =
    Alcotest.(check bool) ("incll-war: " ^ name) want
      (Axiom.Outcomes.subset (set a) (set b))
  in
  incl "eadr <= pcso" true Axiom.Eadr Axiom.Pcso;
  incl "pcso <= pcso-lazy" true Axiom.Pcso Axiom.Pcso_lazy;
  incl "pcso <= ablation" true Axiom.Pcso Axiom.Ablation;
  incl "ablation not <= pcso" false Axiom.Ablation Axiom.Pcso

let corpus_roundtrip () =
  List.iter
    (fun e ->
      match Prog.of_string (Prog.to_string e.Corpus.e_prog) with
      | Ok p ->
          Alcotest.(check bool)
            (e.Corpus.e_name ^ " round-trips")
            true
            (p = e.Corpus.e_prog)
      | Error msg -> Alcotest.failf "%s: %s" e.Corpus.e_name msg)
    Corpus.all

(* The memory-op stream of every corpus program at sched seeds 1-3, as
   the kernel world issues it, digested and pinned. A recorded [# check]
   line replays only while the seeded schedule's draws and [compile]'s
   memory-op order stay the same; this fails when either changes. *)
let schedule_pin () =
  let cfg = World.run_cfg_of_variant Axiom.Pcso in
  let events =
    List.concat_map
      (fun e ->
        List.concat_map
          (fun sched_seed ->
            let mem = Simnvm.Memsys.create (World.mem_config ~cfg ~seed:1) in
            snd
              (Simnvm.Event.record (Simnvm.Memsys.bus mem) (fun () ->
                   World.drive ~sched_seed (Analysis.Exec.of_memsys mem)
                     e.Corpus.e_prog)))
          [ 1; 2; 3 ])
      Corpus.all
  in
  let text = List.map (Fmt.str "%a" Simnvm.Event.pp) events in
  Alcotest.(check int) "event count" 224 (List.length events);
  Alcotest.(check string)
    "event-stream digest" "8b63c4be5c2ad4f885685772622622b3"
    (Digest.to_hex (Digest.string (String.concat "\n" text)))

(* A compiled load assigns its register: one named like a location would
   turn the load into a store the axioms never see. Names beginning with
   [__] belong to the compiled program's halt flag. *)
let register_names_location () =
  List.iter
    (fun (what, text) ->
      match Prog.of_string text with
      | Ok _ -> Alcotest.failf "%s parsed" what
      | Error _ -> ())
    [
      ( "ld into a location",
        "litmus r\nloc x 0 0\nloc y 0 1\nthread t0\n  ld x y\n" );
      ( "reserved location",
        "litmus r\nloc __halt 0 0\nthread t0\n  st __halt 1\n  crash\n" );
      ( "reserved register",
        "litmus r\nloc x 0 0\nthread t0\n  ld x __halt\n" );
    ]

(* --- differential soundness ------------------------------------------ *)

let corpus_sound () =
  List.iter
    (fun e ->
      List.iter
        (fun variant ->
          List.iter
            (fun world ->
              let r =
                Harness.check ~samples:32 ~seed:7 ~world ~variant
                  e.Corpus.e_prog
              in
              Alcotest.(check bool)
                (Fmt.str "%s %s %s checked" e.Corpus.e_name
                   (World.id_name world)
                   (Axiom.variant_name variant))
                false r.Harness.r_skipped;
              match r.Harness.r_violations with
              | [] -> ()
              | v :: _ ->
                  Alcotest.failf "%s: %a" e.Corpus.e_name
                    (Harness.pp_violation (Prog.locs e.Corpus.e_prog))
                    v)
            World.all_ids)
        e.Corpus.e_variants)
    Corpus.all

(* >= 500 fuzzed programs per world; a failure prints the replay file
   verbatim, so it feeds straight into [respct_experiments replay]. *)
let soundness_prop world =
  QCheck.Test.make
    ~name:(Fmt.str "observed within PCSO allowed (%s world)"
             (World.id_name world))
    ~count:500 Gen_common.arb_litmus_prog
    (fun p ->
      let r =
        Harness.check ~samples:6 ~seed:11 ~world ~variant:Axiom.Pcso p
      in
      if r.Harness.r_skipped then true (* axiom state cap: nothing ran *)
      else
        match r.Harness.r_violations with
        | [] -> true
        | v :: _ ->
            QCheck.Test.fail_reportf
              "soundness violation; replay file:@.%s"
              (Obs.Cx.to_string (Harness.campaign ()) (p, Some v)))

let gen_well_formed =
  QCheck.Test.make ~name:"generated programs well-formed" ~count:300
    Gen_common.arb_litmus_prog
    (fun p -> Prog.well_formed p)

let shrink_well_formed =
  QCheck.Test.make ~name:"shrink candidates stay well-formed" ~count:100
    Gen_common.arb_litmus_prog (fun p ->
      let ok = ref true in
      Litmus.Gen.shrink p (fun q -> if not (Prog.well_formed q) then ok := false);
      !ok)

(* --- planted mutant --------------------------------------------------- *)

(* With [Drop_same_line_order] planted the kernel runs with
   line-snapshot write-back off while the spec stays PCSO: the fuzzer
   must find a violating program, shrink it, and produce a
   counterexample that replays from its printed text, which is what
   [respct_experiments replay] consumes. *)
let mutant_detected () =
  Fun.protect
    ~finally:(fun () -> World.set_mutant None)
    (fun () ->
      World.set_mutant (Some World.Drop_same_line_order);
      let fz =
        Harness.fuzz ~n:60 ~seed:3 ~samples:24 ~worlds:[ World.Kernel ]
          ~variants:[ Axiom.Pcso ] ()
      in
      match fz.Harness.f_failure with
      | None ->
          Alcotest.failf
            "planted mutant survived %d fuzzed programs (%d skipped)"
            fz.Harness.f_tested fz.Harness.f_skipped
      | Some s -> (
          (match s.Obs.Cx.witness with
          | _, Some v ->
              Alcotest.(check bool)
                "violation records the planted mutant" true
                (v.Harness.v_mutant = Some World.Drop_same_line_order)
          | _, None -> Alcotest.fail "shrunk witness carries no violation");
          (* the replay plants the recorded mutant itself *)
          World.set_mutant None;
          match
            Obs.Cx.replay [ Obs.Cx.Campaign (Harness.campaign ()) ] s.Obs.Cx.text
          with
          | Ok (_, Obs.Cx.Reproduced _) -> ()
          | Ok (_, Obs.Cx.Vanished _) ->
              Alcotest.fail "parsed replay file no longer reproduces"
          | Error e -> Alcotest.failf "replay file: %a" Obs.Cx.pp_error e))

(* The same fuzz budget without the mutant is clean — the detection
   above is the mutant's doing, not generator noise. *)
let mutant_clean_baseline () =
  let fz =
    Harness.fuzz ~n:60 ~seed:3 ~samples:24 ~worlds:[ World.Kernel ]
      ~variants:[ Axiom.Pcso ] ()
  in
  match fz.Harness.f_failure with
  | None -> ()
  | Some s ->
      Alcotest.failf "unexpected violation without mutant:@.%s" s.Obs.Cx.text

(* --- completeness ----------------------------------------------------- *)

(* Exhaustive 2-thread family (2 ops x 1 op over {st x, st y, pwb x,
   psync}, same-line and split-line layouts): the outcomes the
   reference model can reach — all interleavings crossed with all
   write-back placements — must EQUAL the axiomatic PCSO set, both
   directions. *)
let completeness_exhaustive () =
  let layouts =
    [ [ ("x", 0, 0); ("y", 0, 1) ]; [ ("x", 0, 0); ("y", 1, 0) ] ]
  in
  let alphabet =
    [ Prog.St ("x", 1); Prog.St ("y", 1); Prog.Pwb "x"; Prog.Psync ]
  in
  let checked = ref 0 in
  List.iter
    (fun layout ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              List.iter
                (fun c ->
                  let p =
                    {
                      Prog.name = Fmt.str "exh-%d" !checked;
                      layout;
                      threads = [ [ a; b ]; [ c ] ];
                    }
                  in
                  let ax = Axiom.allowed ~variant:Axiom.Pcso p in
                  Alcotest.(check bool) "axiom complete" true ax.Axiom.complete;
                  (match World.exhaustive_ref p with
                  | None -> Alcotest.fail "exhaustive_ref hit its path cap"
                  | Some reachable ->
                      if
                        not
                          (Axiom.Outcomes.equal reachable ax.Axiom.outcomes)
                      then
                        Alcotest.failf
                          "@[<v>%s@,reachable %a@,allowed   %a@]"
                          (Prog.to_string p)
                          (Axiom.pp_outcomes (Prog.locs p))
                          reachable
                          (Axiom.pp_outcomes (Prog.locs p))
                          ax.Axiom.outcomes);
                  incr checked)
                alphabet)
            alphabet)
        alphabet)
    layouts;
  Alcotest.(check int) "family size" 128 !checked

(* --- axcheck: the static-durability soundness gate -------------------- *)

module Axcheck = Litmus.Axcheck

let axcheck_demo_clean () =
  let r = Axcheck.check Axcheck.demo in
  Alcotest.(check bool) "not skipped" false r.Axcheck.r_skipped;
  Alcotest.(check int) "no violations" 0 (List.length r.Axcheck.r_violations);
  Alcotest.(check (list string))
    "claims both WAL fields" [ "payload"; "commit" ] r.Axcheck.r_claimed;
  Alcotest.check (Alcotest.float 1e-9) "claims are empirically tight" 1.0
    (Axcheck.precision r)

let axcheck_demo_mutant () =
  (* the original's claims judged against the stripped enumeration *)
  let claims = Axcheck.static_claims Axcheck.demo in
  let r = Axcheck.check ~claims (Axcheck.strip_psync Axcheck.demo) in
  Alcotest.(check bool) "stripped demo violates" true
    (r.Axcheck.r_violations <> []);
  (* shrink, round-trip the replay file, reproduce *)
  let variant = Axiom.Pcso_lazy in
  match
    Axcheck.counterexample ~mutant:Axcheck.Strip_psync ~variant Axcheck.demo
  with
  | None -> Alcotest.fail "stripped demo shows no claim violation"
  | Some s -> (
      let shrunk = s.Obs.Cx.witness.Axcheck.cx_prog in
      Alcotest.(check bool) "shrunk program still violates" true
        (Axcheck.violates ~mutant:Axcheck.Strip_psync ~variant shrunk);
      Alcotest.(check bool) "shrunk no larger than the demo" true
        (List.length (Prog.locs shrunk) <= List.length (Prog.locs Axcheck.demo));
      (match s.Obs.Cx.parity with
      | Ok () -> ()
      | Error m -> Alcotest.failf "shrunk counterexample: %s" m);
      match Obs.Cx.of_string Axcheck.campaign s.Obs.Cx.text with
      | Error e -> Alcotest.failf "replay file did not parse: %a" Obs.Cx.pp_error e
      | Ok c' ->
          Alcotest.(check string)
            "loc survives the round-trip" s.Obs.Cx.witness.Axcheck.cx_loc
            c'.Axcheck.cx_loc)

let axcheck_redundant_pwb_neutral () =
  (* duplicating pwbs changes no outcome: the axiomatic gate stays
     green, so catching this mutant is the lint's (and the clean-pwb
     counter's) job *)
  let claims = Axcheck.static_claims Axcheck.demo in
  let r = Axcheck.check ~claims (Axcheck.inject_redundant_pwb Axcheck.demo) in
  Alcotest.(check int) "outcome-neutral" 0 (List.length r.Axcheck.r_violations)

let axcheck_fuzz_clean () =
  let r = Axcheck.fuzz ~n:150 ~seed:5 () in
  (match r.Axcheck.fz_failure with
  | None -> ()
  | Some s -> Alcotest.failf "soundness violation:@.%s" s.Obs.Cx.text);
  Alcotest.(check bool) "some claims exercised" true (r.Axcheck.fz_claims > 0)

let axcheck_fuzz_mutant () =
  match Axcheck.fuzz ~n:150 ~seed:5 ~mutate:Axcheck.Strip_psync () with
  | { Axcheck.fz_failure = None; fz_tested; fz_skipped; _ } ->
      Alcotest.failf "strip-psync survived %d fuzzed programs (%d skipped)"
        fz_tested fz_skipped
  | { Axcheck.fz_failure = Some s; _ } -> (
      Alcotest.(check bool) "failure records the mutant" true
        (s.Obs.Cx.witness.Axcheck.cx_mutant = Some Axcheck.Strip_psync);
      match s.Obs.Cx.parity with
      | Ok () -> ()
      | Error m -> Alcotest.failf "minimized fuzz failure: %s" m)

let () =
  Alcotest.run "litmus"
    [
      ( "corpus",
        [
          Alcotest.test_case "golden allowed sets" `Quick golden_allowed;
          Alcotest.test_case "variant inclusions" `Quick variant_inclusions;
          Alcotest.test_case "replay text round-trips" `Quick corpus_roundtrip;
          Alcotest.test_case "register naming a location rejected" `Quick
            register_names_location;
          Alcotest.test_case "sound in all worlds" `Quick corpus_sound;
          Alcotest.test_case "schedule pin: memory-op stream digest" `Quick
            schedule_pin;
        ] );
      ( "soundness",
        List.map
          (fun t -> Gen_common.to_alcotest ~suite:"litmus" t)
          [
            soundness_prop World.Kernel;
            soundness_prop World.Refm;
            gen_well_formed;
            shrink_well_formed;
          ] );
      ( "mutant",
        [
          Alcotest.test_case "planted mutant detected, shrunk, replayed"
            `Quick mutant_detected;
          Alcotest.test_case "clean baseline without mutant" `Quick
            mutant_clean_baseline;
        ] );
      ( "completeness",
        [
          Alcotest.test_case "exhaustive family: reachable = allowed" `Quick
            completeness_exhaustive;
        ] );
      ( "axcheck",
        [
          Alcotest.test_case "WAL demo claims verified" `Quick
            axcheck_demo_clean;
          Alcotest.test_case "strip-psync shrunk and replayed" `Quick
            axcheck_demo_mutant;
          Alcotest.test_case "redundant-pwb outcome-neutral" `Quick
            axcheck_redundant_pwb_neutral;
          Alcotest.test_case "fuzz clean baseline" `Quick axcheck_fuzz_clean;
          Alcotest.test_case "fuzz detects strip-psync" `Quick
            axcheck_fuzz_mutant;
        ] );
    ]
