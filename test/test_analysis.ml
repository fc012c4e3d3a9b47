(* Tests for the analysis extensions: the idempotence/WAR rule of paper
   section 3.3.2 (Table 2) and the vector-clock race checker validating
   the race-freedom assumption of section 2.1. *)

open Analysis

let classification =
  Alcotest.testable Idempotence.pp_classification ( = )

let test_table2 () =
  (* x=5; y=x : both RAW, idempotent *)
  Alcotest.check classification "RAW x" Idempotence.Raw
    (Idempotence.classify Idempotence.table2_raw "x");
  Alcotest.check Alcotest.bool "RAW idempotent" true
    (Idempotence.idempotent Idempotence.table2_raw);
  (* y=x; x=8 : x is WAR, not idempotent *)
  Alcotest.check classification "WAR x" Idempotence.War
    (Idempotence.classify Idempotence.table2_war "x");
  Alcotest.check Alcotest.bool "WAR not idempotent" false
    (Idempotence.idempotent Idempotence.table2_war)

let test_classify_cases () =
  let open Idempotence in
  Alcotest.check classification "read-only" No_dependency
    (classify [ Read "a"; Read "a" ] "a");
  Alcotest.check classification "never accessed" No_dependency
    (classify [ Read "a" ] "b");
  Alcotest.check classification "write-only" Raw
    (classify [ Write "a" ] "a");
  Alcotest.check classification "write then read then write = RAW" Raw
    (classify [ Write "a"; Read "a"; Write "a" ] "a");
  Alcotest.check classification "reads of others don't matter" War
    (classify [ Read "b"; Read "a"; Write "b"; Write "a" ] "a")

let test_needs_logging_matches_paper_example () =
  (* The paper's x^p snippet between RPs: x is read then written in the
     loop (WAR -> InCLL); p is written once then only read (no logging). *)
  let open Idempotence in
  let trace =
    [
      Write "p";
      Read "p";
      Read "x";
      Write "x";
      Read "p";
      Read "x";
      Write "x";
    ]
  in
  Alcotest.(check (list string)) "only x needs logging" [ "x" ]
    (needs_logging trace)

(* ------------------------------------------------------------------ *)
(* Race checker *)

let test_locked_accesses_race_free () =
  let open Racecheck in
  let events =
    Simnvm.Event.
      [
        Acquire { tid = 1; lock = 0 };
        Store { tid = 1; addr = 100 };
        Release { tid = 1; lock = 0 };
        Acquire { tid = 2; lock = 0 };
        Load { tid = 2; addr = 100 };
        Store { tid = 2; addr = 100 };
        Release { tid = 2; lock = 0 };
      ]
  in
  Alcotest.check Alcotest.bool "race free" true (race_free events)

let test_unlocked_write_write_races () =
  let open Racecheck in
  let events =
    Simnvm.Event.
      [
        Store { tid = 1; addr = 100 };
        Store { tid = 2; addr = 100 };
      ]
  in
  Alcotest.check Alcotest.bool "detected" false (race_free events);
  match check events with
  | [ { addr; first_thread; first_access; second_thread; second_access } ] ->
      Alcotest.check Alcotest.int "addr" 100 addr;
      Alcotest.check (Alcotest.pair Alcotest.int Alcotest.int) "threads" (1, 2)
        (first_thread, second_thread);
      Alcotest.check Alcotest.bool "write/write" true
        (first_access = Awrite && second_access = Awrite)
  | races -> Alcotest.failf "expected one race, got %d" (List.length races)

let test_read_write_race () =
  let open Racecheck in
  let events =
    Simnvm.Event.
      [
        Acquire { tid = 1; lock = 0 };
        Load { tid = 1; addr = 7 };
        Release { tid = 1; lock = 0 };
        (* writer uses a different lock: still a race with the read *)
        Acquire { tid = 2; lock = 9 };
        Store { tid = 2; addr = 7 };
        Release { tid = 2; lock = 9 };
      ]
  in
  Alcotest.check Alcotest.bool "different locks do not order" false
    (race_free events)

let test_hb_transitivity () =
  let open Racecheck in
  (* T1 -> (lock A) -> T2 -> (lock B) -> T3: T3's write is ordered after
     T1's via the chain, no race. *)
  let events =
    Simnvm.Event.
      [
        Store { tid = 1; addr = 42 };
        Acquire { tid = 1; lock = 1 };
        Release { tid = 1; lock = 1 };
        Acquire { tid = 2; lock = 1 };
        Acquire { tid = 2; lock = 2 };
        Release { tid = 2; lock = 2 };
        Release { tid = 2; lock = 1 };
        Acquire { tid = 3; lock = 2 };
        Store { tid = 3; addr = 42 };
        Release { tid = 3; lock = 2 };
      ]
  in
  Alcotest.check Alcotest.bool "transitive happens-before" true (race_free events)

let test_same_thread_never_races () =
  let open Racecheck in
  let events =
    Simnvm.Event.
      [
        Store { tid = 1; addr = 5 };
        Load { tid = 1; addr = 5 };
        Store { tid = 1; addr = 5 };
      ]
  in
  Alcotest.check Alcotest.bool "program order" true (race_free events)

let test_race_dedupe_and_count () =
  let open Racecheck in
  let t = create () in
  List.iter (push t)
    Simnvm.Event.
      [
        Store { tid = 1; addr = 100 };
        Store { tid = 2; addr = 100 };
        Store { tid = 1; addr = 100 };
        Store { tid = 2; addr = 100 };
      ];
  Alcotest.check Alcotest.int "one deduped report" 1 (List.length (races t));
  Alcotest.check Alcotest.int "race_count keeps every detection" 3
    (race_count t)

(* ------------------------------------------------------------------ *)
(* IR and CFG *)

let stmt_v x = Ir.Var x
let stmt_i n = Ir.Int n
let set x e = Ir.Assign (x, e)

let one_thread ?(persistent = [ ("x", 0); ("y", 0) ])
    ?(transient = [ ("t", 0) ]) body =
  {
    Ir.pname = "t";
    persistent;
    transient;
    threads = [ { Ir.tname = "main"; body } ];
  }

let test_ir_check () =
  Alcotest.check Alcotest.bool "corpus well-formed" true
    (List.for_all
       (fun (_, prog) -> Ir.well_formed (prog ~iters:3))
       Corpus.all);
  let dup_rp = one_thread [ Ir.Rp 0; Ir.Rp 0 ] in
  Alcotest.check Alcotest.bool "duplicate rp rejected" false
    (Ir.well_formed dup_rp);
  let undeclared = one_thread [ set "z" (stmt_i 1) ] in
  Alcotest.check Alcotest.bool "undeclared var rejected" false
    (Ir.well_formed undeclared)

let test_cfg_shape () =
  let p = one_thread [ set "x" (stmt_i 1); Ir.Rp 0; set "y" (stmt_v "x") ] in
  let cfg = Ir.cfg_of_thread (List.hd p.Ir.threads) in
  (* entry, 3 statements, exit *)
  Alcotest.check Alcotest.int "node count" 5 (Array.length cfg.Ir.nodes);
  let loop =
    Ir.cfg_of_thread
      {
        Ir.tname = "l";
        body =
          [
            Ir.While (Ir.Binop (Ir.Lt, stmt_v "t", stmt_i 3),
                      [ set "t" (Ir.Binop (Ir.Add, stmt_v "t", stmt_i 1)) ]);
          ];
      }
  in
  let branch =
    Array.to_list loop.Ir.nodes
    |> List.find (fun n ->
           match n.Ir.kind with Ir.Node_branch _ -> true | _ -> false)
  in
  Alcotest.check Alcotest.bool "loop back-edge reaches branch" true
    (List.exists
       (fun n -> List.mem branch.Ir.id n.Ir.succ && n.Ir.id > branch.Ir.id)
       (Array.to_list loop.Ir.nodes))

let test_dataflow_lattices () =
  let module VMay = Dataflow.MaySet (Dataflow.Vars) in
  let module VMust = Dataflow.MustSet (Dataflow.Vars) in
  let s = Dataflow.Vars.of_list [ "a"; "b" ] in
  Alcotest.check Alcotest.bool "may join is union" true
    (Dataflow.Vars.equal
       (VMay.join s (Dataflow.Vars.singleton "c"))
       (Dataflow.Vars.add "c" s));
  Alcotest.check Alcotest.bool "must bottom absorbs" true
    (VMust.equal (VMust.join VMust.bottom (VMust.Known s)) (VMust.Known s));
  Alcotest.check Alcotest.bool "must join is intersection" true
    (VMust.equal
       (VMust.join (VMust.Known s)
          (VMust.Known (Dataflow.Vars.singleton "a")))
       (VMust.Known (Dataflow.Vars.singleton "a")));
  Alcotest.check Alcotest.bool "top membership" true
    (VMust.mem "anything" VMust.bottom)

(* ------------------------------------------------------------------ *)
(* Warstatic *)

let war_of p =
  List.fold_left
    (fun acc (s : Warstatic.summary) -> Dataflow.Vars.union acc s.Warstatic.war)
    Dataflow.Vars.empty (Warstatic.analyse p)

let test_warstatic_straightline () =
  (* Table 2: y=x; x=8 makes x WAR; x=5; y=x leaves both RAW. *)
  let war = one_thread [ set "y" (stmt_v "x"); set "x" (stmt_i 8) ] in
  Alcotest.check classification "WAR" Idempotence.War
    (Warstatic.classify war "x");
  let raw = one_thread [ set "x" (stmt_i 5); set "y" (stmt_v "x") ] in
  Alcotest.check classification "RAW" Idempotence.Raw
    (Warstatic.classify raw "x");
  Alcotest.check classification "y written-only" Idempotence.Raw
    (Warstatic.classify raw "y")

let test_warstatic_branch_may () =
  (* The read of x sits on one arm only: still may-WAR. *)
  let p =
    one_thread
      [
        Ir.If (stmt_v "t", [ set "t" (stmt_v "x") ], []);
        set "x" (stmt_i 1);
      ]
  in
  Alcotest.check Alcotest.bool "may-WAR across a branch" true
    (Dataflow.Vars.mem "x" (war_of p))

let test_warstatic_rp_resets () =
  (* Read and write separated by a restart point: no WAR. *)
  let p = one_thread [ set "t" (stmt_v "x"); Ir.Rp 0; set "x" (stmt_i 1) ] in
  Alcotest.check Alcotest.bool "rp splits the region" false
    (Dataflow.Vars.mem "x" (war_of p));
  let q = one_thread [ set "t" (stmt_v "x"); set "x" (stmt_i 1) ] in
  Alcotest.check Alcotest.bool "same code without rp is WAR" true
    (Dataflow.Vars.mem "x" (war_of q))

(* ------------------------------------------------------------------ *)
(* Lockset *)

let test_lockset_diagnostics () =
  let bad_release = one_thread [ Ir.Release 0 ] in
  let s = List.hd (Lockset.analyse bad_release) in
  Alcotest.check Alcotest.int "release-not-acquired" 1
    (List.length s.Lockset.release_unheld);
  let leak = one_thread [ Ir.Acquire 0; set "x" (stmt_i 1) ] in
  let s = List.hd (Lockset.analyse leak) in
  Alcotest.check (Alcotest.list Alcotest.int) "leaked lock" [ 0 ]
    s.Lockset.leaked;
  let rp_locked = one_thread [ Ir.Acquire 0; Ir.Rp 0; Ir.Release 0 ] in
  let s = List.hd (Lockset.analyse rp_locked) in
  Alcotest.check Alcotest.int "rp in critical section" 1
    (List.length s.Lockset.rp_critical)

let two_threads b0 b1 =
  {
    Ir.pname = "t2";
    persistent = [ ("x", 0) ];
    transient = [];
    threads =
      [ { Ir.tname = "a"; body = b0 }; { Ir.tname = "b"; body = b1 } ];
  }

let test_lockset_races () =
  let unlocked =
    two_threads [ set "x" (stmt_i 1) ] [ set "x" (stmt_i 2) ]
  in
  (match Lockset.races unlocked with
  | [ c ] ->
      Alcotest.check Alcotest.bool "write-write candidate" true
        c.Lockset.rc_write_write
  | l -> Alcotest.failf "expected one candidate, got %d" (List.length l));
  let locked =
    two_threads
      [ Ir.Acquire 0; set "x" (stmt_i 1); Ir.Release 0 ]
      [ Ir.Acquire 0; set "x" (stmt_i 2); Ir.Release 0 ]
  in
  Alcotest.check Alcotest.int "consistently locked: none" 0
    (List.length (Lockset.races locked))

(* ------------------------------------------------------------------ *)
(* Placement and lint over the corpus *)

let vars_l s = Dataflow.Vars.elements s

let test_placement_corpus () =
  let p, plan = Placement.infer (Corpus.bank_transfer ~iters:3) in
  Alcotest.check (Alcotest.list Alcotest.string) "bank logs all accounts"
    [ "acct0"; "acct1"; "acct2" ]
    (vars_l plan.Placement.log);
  Alcotest.check (Alcotest.list Alcotest.string) "bank tracks nothing" []
    (vars_l plan.Placement.track);
  Alcotest.check Alcotest.int "one rp per teller loop" 2
    (List.length (Ir.rp_ids p));
  let q, qplan = Placement.infer (Corpus.kv_update ~iters:3) in
  Alcotest.check (Alcotest.list Alcotest.string) "kv logs the WAR vars"
    [ "size"; "slot0"; "slot1" ]
    (vars_l qplan.Placement.log);
  Alcotest.check (Alcotest.list Alcotest.string) "kv tracks the journal"
    [ "journal" ]
    (vars_l qplan.Placement.track);
  Alcotest.check Alcotest.bool "instrumented programs stay well-formed" true
    (Ir.well_formed p && Ir.well_formed q)

let rules fs = List.map (fun (f : Lint.finding) -> f.Lint.rule) fs

let test_lint_clean_and_mutant () =
  List.iter
    (fun (name, prog) ->
      let p, plan = Placement.infer (prog ~iters:3) in
      Alcotest.check Alcotest.int (name ^ " lints clean") 0
        (List.length (Lint.run ~plan p));
      let stripped =
        match Dataflow.Vars.min_elt_opt plan.Placement.log with
        | Some v -> v
        | None -> Alcotest.fail "corpus plan must log something"
      in
      let mutant =
        { plan with Placement.log = Dataflow.Vars.remove stripped plan.Placement.log }
      in
      let fs = Lint.run ~plan:mutant p in
      Alcotest.check Alcotest.bool (name ^ " mutant flagged") true
        (List.mem Lint.War_missing_logging (rules fs)
        && Lint.errors fs <> []))
    Corpus.all

let test_lint_structural_rules () =
  let unreachable =
    one_thread [ Ir.Rp 0; Ir.If (stmt_i 0, [ Ir.Rp 1 ], []); set "x" (stmt_i 1) ]
  in
  Alcotest.check Alcotest.bool "unreachable rp" true
    (List.mem Lint.Unreachable_rp (rules (Lint.run unreachable)));
  let no_region = one_thread [ set "x" (stmt_i 1) ] in
  Alcotest.check Alcotest.bool "store outside restart region" true
    (List.mem Lint.Store_outside_region (rules (Lint.run no_region)))

(* ------------------------------------------------------------------ *)
(* Interpreter *)

let test_interp_kv () =
  let obs = Exec.interp (Corpus.kv_update ~iters:4) in
  Alcotest.check Alcotest.bool "completes" true obs.Exec.completed;
  let final v = List.assoc v obs.Exec.finals in
  (* i = 0,2 bump slot0 by 3; i = 1,3 bump slot1 by 5; size counts all. *)
  Alcotest.check Alcotest.int "slot0" 6 (final "slot0");
  Alcotest.check Alcotest.int "slot1" 10 (final "slot1");
  Alcotest.check Alcotest.int "size" 4 (final "size");
  Alcotest.check Alcotest.int "journal" 31 (final "journal")

(* Two threads contend for one lock, three statements each. A thread
   whose next statement acquires a held lock is not runnable, so every
   schedule spends its six steps on statements and completes. *)
let test_interp_lock_contenders () =
  let body =
    [ Ir.Acquire 0; set "x" (Ir.Binop (Ir.Add, Ir.Var "x", Ir.Int 1));
      Ir.Release 0 ]
  in
  let p =
    {
      Ir.pname = "contend";
      persistent = [ ("x", 0) ];
      transient = [];
      threads = [ { Ir.tname = "a"; body }; { Ir.tname = "b"; body } ];
    }
  in
  for sched_seed = 0 to 9 do
    let obs = Exec.interp ~fuel:6 ~sched_seed p in
    let name = Fmt.str "seed %d" sched_seed in
    Alcotest.check Alcotest.bool (name ^ " completes") true obs.Exec.completed;
    Alcotest.check Alcotest.int (name ^ " x") 2 (List.assoc "x" obs.Exec.finals)
  done

(* A release of a lock the thread does not hold is an error on both
   paths: the thread stops there, so its next store never happens. *)
let test_release_unheld () =
  let p = one_thread [ Ir.Release 0; set "x" (stmt_i 5) ] in
  let obs = Exec.interp p in
  Alcotest.check Alcotest.bool "host: error reported" true
    (obs.Exec.thread_error <> None);
  Alcotest.check Alcotest.bool "host: not completed" false obs.Exec.completed;
  Alcotest.check Alcotest.int "host: x untouched" 0
    (List.assoc "x" obs.Exec.finals);
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let st =
    Exec.run ~mem:(Exec.of_memsys mem)
      ~addr_of:(function "x" -> Some 0 | _ -> None)
      p
  in
  Alcotest.check Alcotest.bool "memory: error reported" true
    (st.Exec.error <> None);
  Alcotest.check Alcotest.bool "memory: not completed" false st.Exec.all_done;
  Alcotest.check Alcotest.int "memory: word untouched" 0
    (Simnvm.Memsys.peek mem 0)

(* ------------------------------------------------------------------ *)
(* Persistate: the persist-state lattice *)

let flush_prog ?persistent:(pv = [ ("a", 0); ("b", 0) ]) body =
  {
    Ir.pname = "fp";
    persistent = pv;
    transient = [ ("t", 0) ];
    threads = [ { Ir.tname = "main"; body } ];
  }

let summary_of ?lines ?crash_var p =
  Persistate.summarize ?crash_var (Persistate.create ?lines p)

let in_must s v = Dataflow.Vars.mem v s.Persistate.s_must_durable
let in_dirty s v = Dataflow.Vars.mem v s.Persistate.s_may_dirty

let test_persistate_lifecycle () =
  let s = summary_of (flush_prog [ set "a" (stmt_i 1) ]) in
  Alcotest.check Alcotest.bool "store leaves a dirty" true (in_dirty s "a");
  Alcotest.check Alcotest.bool "dirty is not durable" false (in_must s "a");
  Alcotest.check Alcotest.bool "never-written stays durable" true
    (in_must s "b");
  let s = summary_of (flush_prog [ set "a" (stmt_i 1); Ir.Pwb "a" ]) in
  Alcotest.check Alcotest.bool "pwb clears dirty" false (in_dirty s "a");
  Alcotest.check Alcotest.bool "unfenced pwb is not durable" false
    (in_must s "a");
  Alcotest.check Alcotest.bool "pwb leaves a pending" true
    (Dataflow.Vars.mem "a" s.Persistate.s_may_pending);
  let s =
    summary_of (flush_prog [ set "a" (stmt_i 1); Ir.Pwb "a"; Ir.Psync ])
  in
  Alcotest.check Alcotest.bool "pwb;psync is durable" true (in_must s "a")

let test_persistate_line_mates () =
  (* pwb is line-granular: flushing a also flushes its line-mate b *)
  let p =
    flush_prog
      [ set "a" (stmt_i 1); set "b" (stmt_i 2); Ir.Pwb "a"; Ir.Psync ]
  in
  let s = summary_of ~lines:(fun _ -> 0) p in
  Alcotest.check Alcotest.bool "a durable" true (in_must s "a");
  Alcotest.check Alcotest.bool "line-mate b durable too" true (in_must s "b");
  (* default layout: separate lines, b stays dirty *)
  let s = summary_of p in
  Alcotest.check Alcotest.bool "separate line b stays dirty" true
    (in_dirty s "b");
  Alcotest.check Alcotest.bool "separate line b not durable" false
    (in_must s "b")

let test_persistate_branch_join () =
  (* one arm dirties a: the join keeps both lifecycle states *)
  let s =
    summary_of (flush_prog [ Ir.If (stmt_v "t", [ set "a" (stmt_i 1) ], []) ])
  in
  Alcotest.check Alcotest.bool "may-dirty across the branch" true
    (in_dirty s "a");
  Alcotest.check Alcotest.bool "not durable on every path" false
    (in_must s "a")

let test_persistate_multi_writer () =
  let p =
    {
      Ir.pname = "mw";
      persistent = [ ("a", 0) ];
      transient = [];
      threads =
        [
          { Ir.tname = "w0"; body = [ set "a" (stmt_i 1); Ir.Pwb "a"; Ir.Psync ] };
          { Ir.tname = "w1"; body = [ set "a" (stmt_i 2); Ir.Pwb "a"; Ir.Psync ] };
        ];
    }
  in
  let s = summary_of p in
  Alcotest.check Alcotest.bool "multi-writer demoted" true
    (Dataflow.Vars.mem "a" s.Persistate.s_multi_writer);
  Alcotest.check Alcotest.bool "no durable claim for a racing var" false
    (in_must s "a")

let test_persistate_crash_truncation () =
  (* the store to b sits after the crash: it never executes, so the
     crash summary may still claim b — while the normal-termination
     summary sees it dirty *)
  let p =
    flush_prog
      [
        set "a" (stmt_i 1);
        Ir.Pwb "a";
        Ir.Psync;
        set "t" (stmt_i 1);
        set "b" (stmt_i 1);
      ]
  in
  let s = summary_of ~crash_var:"t" p in
  Alcotest.check Alcotest.bool "a durable at crash" true (in_must s "a");
  Alcotest.check Alcotest.bool "post-crash store invisible" true
    (in_must s "b");
  let s = summary_of p in
  Alcotest.check Alcotest.bool "normal exit sees b dirty" true (in_dirty s "b")

(* ------------------------------------------------------------------ *)
(* Flushlint rules *)

let kinds fs = List.map (fun (f : Flushlint.finding) -> f.Flushlint.fl_kind) fs

let test_flushlint_rules () =
  let has k p = List.mem k (kinds (Flushlint.run p)) in
  Alcotest.check Alcotest.bool "missing-pwb-before-restart-point" true
    (has Flushlint.Missing_pwb_at_rp
       (flush_prog
          [ set "a" (stmt_i 1); Ir.Pwb "a"; Ir.Psync; set "b" (stmt_i 1); Ir.Rp 0 ]));
  Alcotest.check Alcotest.bool "missing-psync-before-dependent-publish" true
    (has Flushlint.Missing_psync_publish
       (flush_prog [ set "a" (stmt_i 1); Ir.Pwb "a"; set "b" (stmt_i 1) ]));
  Alcotest.check Alcotest.bool "redundant-pwb" true
    (has Flushlint.Redundant_pwb (flush_prog [ Ir.Pwb "a" ]));
  Alcotest.check Alcotest.bool "psync-with-no-pending" true
    (has Flushlint.Psync_no_pending
       (flush_prog [ set "a" (stmt_i 1); Ir.Psync ]));
  Alcotest.check Alcotest.bool "cross-line-torn-logging" true
    (has Flushlint.Torn_cross_line
       (flush_prog
          [
            set "a" (stmt_i 1);
            Ir.Pwb "a";
            Ir.Psync;
            set "a" (stmt_i 2);
            set "b" (stmt_i 1);
          ]));
  (* flush-free programs are out of scope, whatever their dirt *)
  Alcotest.check Alcotest.int "no flushes, no findings" 0
    (List.length (Flushlint.run (flush_prog [ set "a" (stmt_i 1); set "b" (stmt_i 1) ])))

let race_prog locked =
  let guard body =
    if locked then (Ir.Acquire 0 :: body) @ [ Ir.Release 0 ] else body
  in
  {
    Ir.pname = "race";
    persistent = [ ("x", 0) ];
    transient = [];
    threads =
      [
        { Ir.tname = "w"; body = guard [ set "x" (stmt_i 1) ] };
        { Ir.tname = "f"; body = guard [ Ir.Pwb "x"; Ir.Psync ] };
      ];
  }

let test_flushlint_race () =
  Alcotest.check Alcotest.bool "unlocked cross-thread flush races" true
    (List.mem Flushlint.Persist_order_race (kinds (Flushlint.run (race_prog false))));
  Alcotest.check Alcotest.bool "a common lock orders persist" false
    (List.mem Flushlint.Persist_order_race (kinds (Flushlint.run (race_prog true))))

let test_flushlint_wal_append () =
  let p = Corpus.wal_append ~iters:3 in
  Alcotest.check Alcotest.int "wal-append lints clean" 0
    (List.length (Flushlint.run p));
  let stripped = Flushlint.strip_psync p in
  let ks = kinds (Flushlint.run stripped) in
  Alcotest.check Alcotest.bool "strip-psync caught" true
    (List.mem Flushlint.Missing_psync_publish ks);
  Alcotest.check Alcotest.bool "strip-psync is error grade" true
    (List.exists Flushlint.is_error ks);
  let doubled = Flushlint.inject_redundant_pwb p in
  let ks = kinds (Flushlint.run doubled) in
  Alcotest.check Alcotest.bool "redundant-pwb caught" true
    (List.mem Flushlint.Redundant_pwb ks);
  Alcotest.check Alcotest.bool "redundant-pwb is warning grade" false
    (List.exists Flushlint.is_error ks)

let test_lint_flush_integration () =
  (* through the Placement + Lint front door, as the CLI runs it *)
  let lint_of prog =
    let p, plan = Placement.infer prog in
    Lint.run ~plan p
  in
  Alcotest.check Alcotest.int "wal-append clean end to end" 0
    (List.length (lint_of (Corpus.wal_append ~iters:3)));
  let fs = lint_of (Flushlint.strip_psync (Corpus.wal_append ~iters:3)) in
  Alcotest.check Alcotest.bool "strip-psync is a lint error" true
    (List.mem Lint.Flush_missing_psync_publish (rules fs) && Lint.errors fs <> []);
  let fs = lint_of (Flushlint.inject_redundant_pwb (Corpus.wal_append ~iters:3)) in
  Alcotest.check Alcotest.bool "redundant-pwb is a lint warning" true
    (List.mem Lint.Flush_redundant_pwb (rules fs) && Lint.errors fs = [])

let test_lint_deterministic () =
  let prog = Flushlint.strip_psync (Corpus.wal_append ~iters:3) in
  let once () =
    let p, plan = Placement.infer prog in
    let fs = Lint.run ~plan p in
    (fs, Obs.Json.to_string (Lint.to_json p fs))
  in
  let fs1, j1 = once () and fs2, j2 = once () in
  Alcotest.check Alcotest.bool "same findings" true (fs1 = fs2);
  Alcotest.(check string) "same bytes" j1 j2;
  Alcotest.check Alcotest.bool "at least two findings to order" true
    (List.length fs1 >= 2)

(* ------------------------------------------------------------------ *)
(* Pwb/Psync uniformity: well-formedness, both interpreters, round-trip *)

let test_flush_ir_uniformity () =
  Alcotest.check Alcotest.bool "flush corpus well-formed" true
    (List.for_all
       (fun (_, prog) -> Ir.well_formed (prog ~iters:3))
       Corpus.flush_corpus);
  Alcotest.check Alcotest.bool "pwb of transient rejected" false
    (Ir.well_formed (flush_prog [ Ir.Pwb "t" ]));
  Alcotest.check Alcotest.bool "bare psync accepted" true
    (Ir.well_formed (flush_prog [ Ir.Psync ]))

let test_wal_append_interp () =
  let obs = Exec.interp (Corpus.wal_append ~iters:4) in
  Alcotest.check Alcotest.bool "completes" true obs.Exec.completed;
  let final v = List.assoc v obs.Exec.finals in
  Alcotest.check Alcotest.int "payload" 31 (final "payload");
  Alcotest.check Alcotest.int "commit" 4 (final "commit")

let test_wal_append_over_memsys () =
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let lw = Simnvm.Memsys.default_config.Simnvm.Memsys.line_words in
  let addr_of = function
    | "payload" -> Some 0
    | "commit" -> Some lw
    | _ -> None
  in
  let st =
    Exec.run ~mem:(Exec.of_memsys mem) ~addr_of (Corpus.wal_append ~iters:4)
  in
  Alcotest.check Alcotest.bool "run completes" true st.Exec.all_done;
  (* every iteration ends pwb;psync — the image tracks the finals *)
  Alcotest.check Alcotest.int "payload persisted" 31
    (Simnvm.Memsys.persisted mem 0);
  Alcotest.check Alcotest.int "commit persisted" 4
    (Simnvm.Memsys.persisted mem lw)

let test_compile_ir_round_trip () =
  let demo = Litmus.Axcheck.demo in
  match
    Litmus.Axcheck.compile_ir ~layout:demo.Litmus.Prog.layout
      (Litmus.World.compile demo)
  with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok rt ->
      Alcotest.(check string)
        "compile_ir inverts World.compile"
        (Litmus.Prog.to_string demo)
        (Litmus.Prog.to_string rt)

(* ------------------------------------------------------------------ *)
(* Dynamic mutant confirmations *)

let test_strip_psync_dynamic () =
  (* the stripped WAL twin really loses data over the file-backed
     medium: pwbs mark lines pending but no psync ever copies them *)
  let run prog =
    let path = Filename.temp_file "axdyn" ".img" in
    let fm = Filemem.create Filemem.default_config ~path in
    let b = Filemem.backend fm in
    let st =
      Litmus.World.drive ~sched_seed:1
        {
          Exec.load = b.Simnvm.Backend.load;
          store = b.Simnvm.Backend.store;
          pwb = b.Simnvm.Backend.pwb;
          psync = b.Simnvm.Backend.psync;
        }
        prog
    in
    Filemem.crash fm;
    let persisted loc =
      Filemem.persisted fm (Litmus.World.addr_of_loc prog loc)
    in
    let r = List.map (fun l -> (l, persisted l)) (Litmus.Prog.locs prog) in
    Filemem.close fm;
    Sys.remove path;
    (st.Exec.halted, r)
  in
  let demo = Litmus.Axcheck.demo in
  let claims = Litmus.Axcheck.static_claims demo in
  Alcotest.check Alcotest.bool "claims to test" true
    (claims.Litmus.Axcheck.c_must_durable <> []);
  let halted, clean = run demo in
  Alcotest.check Alcotest.bool "demo crashes" true halted;
  Alcotest.check Alcotest.int "clean run persists payload" 7
    (List.assoc "payload" clean);
  Alcotest.check Alcotest.int "clean run persists commit" 1
    (List.assoc "commit" clean);
  let _, lost = run (Litmus.Axcheck.strip_psync demo) in
  Alcotest.check Alcotest.bool
    "stripped run loses a claimed location" true
    (List.exists
       (fun l -> List.assoc l lost = 0)
       claims.Litmus.Axcheck.c_must_durable)

let test_redundant_pwb_dynamic () =
  (* the injected duplicate pwb can never see a dirty line: the Memobs
     clean-pwb counter is the dynamic witness for the static warning *)
  let clean_pwbs prog =
    let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
    let r = Obs.Metrics.create () in
    ignore (Obs.Memobs.attach r mem);
    let lw = Simnvm.Memsys.default_config.Simnvm.Memsys.line_words in
    let addr_of = function
      | "payload" -> Some 0
      | "commit" -> Some lw
      | _ -> None
    in
    let st = Exec.run ~mem:(Exec.of_memsys mem) ~addr_of prog in
    Alcotest.check Alcotest.bool "completes" true st.Exec.all_done;
    Obs.Metrics.value (Obs.Metrics.counter r "mem.pwbs.clean")
  in
  Alcotest.check Alcotest.int "baseline has no clean pwb" 0
    (clean_pwbs (Corpus.wal_append ~iters:4));
  Alcotest.check Alcotest.bool "mutant issues clean pwbs" true
    (clean_pwbs (Flushlint.inject_redundant_pwb (Corpus.wal_append ~iters:4)) > 0)

(* ------------------------------------------------------------------ *)
(* QCheck soundness: static analysis vs the interpreter *)

let straightline_exact =
  QCheck.Test.make ~count:1000 ~name:"straight-line static = Idempotence.classify"
    (Gen_common.arb_straightline_ir ~n:30 ())
    (fun seed ->
      let p = Gen_common.straightline_ir ~seed ~n:30 in
      let obs = Exec.interp p in
      if not obs.Exec.completed then
        QCheck.Test.fail_report "straight-line program did not complete";
      List.for_all
        (fun (v, verdict) -> Warstatic.classify p v = verdict)
        obs.Exec.verdicts)

let branchy_sound =
  QCheck.Test.make ~count:500
    ~name:"branchy: every dynamic WAR is flagged statically"
    (Gen_common.arb_branchy_ir ~n:14 ())
    (fun seed ->
      let p = Gen_common.branchy_ir ~seed ~n:14 () in
      let static_war = war_of p in
      List.for_all
        (fun sched_seed ->
          let obs = Exec.interp ~sched_seed p in
          (match obs.Exec.thread_error with
          | Some e -> QCheck.Test.fail_report e
          | None -> ());
          List.for_all
            (fun (v, verdict) ->
              verdict <> Idempotence.War || Dataflow.Vars.mem v static_war)
            obs.Exec.verdicts)
        [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* QCheck soundness: persist-state claims vs the axiomatic spec *)

let axcheck_litmus_sound =
  QCheck.Test.make ~count:500
    ~name:"axcheck: litmus must-durable claims hold in every allowed state"
    Gen_common.arb_litmus_prog
    (fun p ->
      QCheck.assume (Litmus.Prog.well_formed p);
      let r = Litmus.Axcheck.check p in
      r.Litmus.Axcheck.r_skipped || r.Litmus.Axcheck.r_violations = [])

let axcheck_ir_sound =
  QCheck.Test.make ~count:400
    ~name:"axcheck: compiled flushline IR claims hold (two layouts)"
    (Gen_common.arb_flushline_ir ~n:6 ())
    (fun seed ->
      let p = Gen_common.flushline_ir ~seed ~n:6 in
      List.for_all
        (fun lines ->
          match Litmus.Axcheck.compile_ir ?lines p with
          | Error e -> QCheck.Test.fail_reportf "compile_ir: %s" e
          | Ok lp ->
              let r = Litmus.Axcheck.check lp in
              r.Litmus.Axcheck.r_skipped
              || r.Litmus.Axcheck.r_violations = [])
        [ None; Some (fun _ -> 0) ])

let may_dirty_refmodel =
  QCheck.Test.make ~count:300
    ~name:"refmodel cache-dirty lines are statically may-dirty"
    Gen_common.arb_litmus_prog
    (fun p ->
      QCheck.assume (Litmus.Prog.well_formed p);
      let claims = Litmus.Axcheck.static_claims p in
      let dirty = Litmus.Axcheck.ref_dirty_lines ~sched_seed:7 p in
      List.for_all
        (fun line ->
          List.exists
            (fun l ->
              Litmus.Prog.line_of p l = line
              && List.mem l claims.Litmus.Axcheck.c_may_dirty)
            (Litmus.Prog.locs p))
        dirty)

let qcheck_tests =
  List.map
    (fun t -> Gen_common.to_alcotest ~suite:"analysis" t)
    [ straightline_exact; branchy_sound ]

let axcheck_qcheck_tests =
  List.map
    (fun t -> Gen_common.to_alcotest ~suite:"analysis-axcheck" t)
    [ axcheck_litmus_sound; axcheck_ir_sound; may_dirty_refmodel ]

(* The cross-check agrees only on equal logs: a dynamic log short of the
   static one is what an audit that under-reports looks like, and one
   beyond it is a variable the plan fails to log. *)
let test_logs_agree () =
  let agree static dynamic = Audit.logs_agree ~static ~dynamic in
  Alcotest.(check bool) "equal" true (agree [ "a"; "b" ] [ "b"; "a" ]);
  Alcotest.(check bool) "both empty" true (agree [] []);
  Alcotest.(check bool) "strict subset" false (agree [ "a"; "b" ] [ "a" ]);
  Alcotest.(check bool) "empty dynamic" false (agree [ "a" ] []);
  Alcotest.(check bool) "strict superset" false (agree [ "a" ] [ "a"; "b" ])

(* The CI lint gate in process: [analyze --dynamic --persistency] must
   not pass vacuously, since an audit that saw no events would agree with
   an empty log. Every program agrees, with segments and no races; the
   two programs with WAR variables have a nonempty dynamic log; a second
   run gives the same text and document. *)
let test_analyze_dynamic_gate () =
  let run () =
    Obs.Jobs.run
      (Result.get_ok (Analyze.jobs ~dynamic:true ~persistency:true ()))
  in
  let r = run () in
  Alcotest.(check bool) "passes" true r.Obs.Jobs.ok;
  let field k j =
    match Obs.Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "no %s field" k
  in
  let programs =
    match field "programs" r.Obs.Jobs.json with
    | Obs.Json.List ps -> ps
    | _ -> Alcotest.fail "programs is not a list"
  in
  let name p =
    match field "name" p with Obs.Json.String n -> n | _ -> "?"
  in
  Alcotest.(check (list string))
    "every program"
    [ "bank-transfer"; "kv-update"; "wal-append" ]
    (List.map name programs);
  List.iter
    (fun p ->
      let name = name p and d = field "dynamic" p in
      Alcotest.(check bool) (name ^ " agrees") true
        (field "agrees" d = Obs.Json.Bool true);
      Alcotest.(check bool) (name ^ " has segments") true
        (match field "segments" d with Obs.Json.Int n -> n > 0 | _ -> false);
      Alcotest.(check bool) (name ^ " has no races") true
        (field "races" d = Obs.Json.Int 0);
      if name <> "wal-append" then
        Alcotest.(check bool) (name ^ " has a dynamic log") true
          (field "dynamic_log" d <> Obs.Json.List []))
    programs;
  let again = run () in
  Alcotest.(check string) "same text" r.Obs.Jobs.text again.Obs.Jobs.text;
  Alcotest.(check string)
    "same document"
    (Obs.Json.to_string r.Obs.Jobs.json)
    (Obs.Json.to_string again.Obs.Jobs.json)

let () =
  Alcotest.run "analysis"
    [
      ( "idempotence",
        [
          Alcotest.test_case "Table 2" `Quick test_table2;
          Alcotest.test_case "classification cases" `Quick test_classify_cases;
          Alcotest.test_case "paper x^p example" `Quick
            test_needs_logging_matches_paper_example;
        ] );
      ( "racecheck",
        [
          Alcotest.test_case "locked accesses race-free" `Quick
            test_locked_accesses_race_free;
          Alcotest.test_case "unlocked write-write race" `Quick
            test_unlocked_write_write_races;
          Alcotest.test_case "different locks race" `Quick
            test_read_write_race;
          Alcotest.test_case "happens-before transitivity" `Quick
            test_hb_transitivity;
          Alcotest.test_case "same thread never races" `Quick
            test_same_thread_never_races;
          Alcotest.test_case "dedupe vs race_count" `Quick
            test_race_dedupe_and_count;
        ] );
      ( "ir",
        [
          Alcotest.test_case "well-formedness" `Quick test_ir_check;
          Alcotest.test_case "cfg shape" `Quick test_cfg_shape;
          Alcotest.test_case "dataflow lattices" `Quick test_dataflow_lattices;
        ] );
      ( "warstatic",
        [
          Alcotest.test_case "straight-line Table 2" `Quick
            test_warstatic_straightline;
          Alcotest.test_case "branch may-WAR" `Quick test_warstatic_branch_may;
          Alcotest.test_case "rp resets the region" `Quick
            test_warstatic_rp_resets;
        ] );
      ( "lockset",
        [
          Alcotest.test_case "lock diagnostics" `Quick test_lockset_diagnostics;
          Alcotest.test_case "race candidates" `Quick test_lockset_races;
        ] );
      ( "placement+lint",
        [
          Alcotest.test_case "corpus plans" `Quick test_placement_corpus;
          Alcotest.test_case "clean plans lint clean, mutants don't" `Quick
            test_lint_clean_and_mutant;
          Alcotest.test_case "structural rules" `Quick
            test_lint_structural_rules;
        ] );
      ( "exec",
        [
          Alcotest.test_case "kv interpreter finals" `Quick test_interp_kv;
          Alcotest.test_case "held lock blocks without spending a step"
            `Quick test_interp_lock_contenders;
          Alcotest.test_case "release of an unheld lock stops the thread"
            `Quick test_release_unheld;
        ] );
      ( "persistate",
        [
          Alcotest.test_case "flush lifecycle" `Quick test_persistate_lifecycle;
          Alcotest.test_case "line-granular pwb" `Quick
            test_persistate_line_mates;
          Alcotest.test_case "branch join" `Quick test_persistate_branch_join;
          Alcotest.test_case "multi-writer demotion" `Quick
            test_persistate_multi_writer;
          Alcotest.test_case "crash truncation" `Quick
            test_persistate_crash_truncation;
        ] );
      ( "flushlint",
        [
          Alcotest.test_case "per-thread rules" `Quick test_flushlint_rules;
          Alcotest.test_case "persist-order race" `Quick test_flushlint_race;
          Alcotest.test_case "wal-append and its mutants" `Quick
            test_flushlint_wal_append;
          Alcotest.test_case "lint front door" `Quick
            test_lint_flush_integration;
          Alcotest.test_case "deterministic output" `Quick
            test_lint_deterministic;
        ] );
      ( "flush-uniformity",
        [
          Alcotest.test_case "well-formedness" `Quick test_flush_ir_uniformity;
          Alcotest.test_case "wal-append interp finals" `Quick
            test_wal_append_interp;
          Alcotest.test_case "wal-append over the memory system" `Quick
            test_wal_append_over_memsys;
          Alcotest.test_case "compile_ir round-trip" `Quick
            test_compile_ir_round_trip;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "dynamic gate holds, not vacuously" `Quick
            test_analyze_dynamic_gate;
          Alcotest.test_case "logs agree only when equal" `Quick
            test_logs_agree;
        ] );
      ( "mutants-dynamic",
        [
          Alcotest.test_case "strip-psync loses data on filemem" `Quick
            test_strip_psync_dynamic;
          Alcotest.test_case "redundant-pwb trips the clean-pwb counter"
            `Quick test_redundant_pwb_dynamic;
        ] );
      ("soundness", qcheck_tests);
      ("axcheck-soundness", axcheck_qcheck_tests);
    ]
