(* Tests for the experiment harness: workload drivers produce sane
   measurements, the eADR ablation makes flushes free, the table renderer
   is well-formed, and Loc_report finds the sources. *)

let tiny =
  {
    Harness.Experiments.small with
    Harness.Experiments.sweep_threads = [ 2 ];
    duration_ns = 100_000.0;
    map_prefill = 400;
    buckets = 200;
    queue_prefill = 50;
    period_ns = 25_000.0;
    fig10_threads = 2;
    fig12_buckets = [ 400 ];
    recovery_threads = 2;
  }

let test_map_point_sane () =
  List.iter
    (fun kind ->
      let pt =
        Harness.Experiments.point tiny kind (Harness.Experiments.Map 50)
          ~threads:2
      in
      Alcotest.(check bool)
        (Harness.Systems.name_of kind ^ " throughput positive")
        true
        (Harness.Experiments.point_mops pt > 0.0);
      Alcotest.(check bool) "ops counted" true
        (Harness.Experiments.point_extra_int pt "total_ops" > 0))
    Harness.Systems.map_kinds

let test_queue_point_sane () =
  List.iter
    (fun kind ->
      let pt =
        Harness.Experiments.point tiny kind Harness.Experiments.Queue
          ~threads:2
      in
      Alcotest.(check bool)
        (Harness.Systems.name_of kind ^ " throughput positive")
        true
        (Harness.Experiments.point_mops pt > 0.0))
    Harness.Systems.queue_kinds

let test_respct_checkpoints_during_measurement () =
  let pt =
    Harness.Experiments.point tiny Harness.Systems.Respct
      (Harness.Experiments.Map 90) ~threads:2
  in
  let checkpoints = Harness.Experiments.point_extra_int pt "checkpoints" in
  Alcotest.(check bool)
    (Printf.sprintf "checkpoints ran (%d)" checkpoints)
    true (checkpoints >= 2);
  Alcotest.(check bool) "flushed addresses" true
    (Harness.Experiments.point_extra_int pt "flushed_addrs" > 0)

(* eADR ablation (paper section 6): with the cache in the persistent
   domain, flushes are free; ResPCT's checkpoint flush time collapses. *)
let test_eadr_ablation () =
  let run eadr =
    let p =
      {
        (Harness.Experiments.params_for tiny ~threads:2
           ~kind:Harness.Systems.Respct)
        with
        Harness.Systems.eadr;
      }
    in
    let pt =
      Harness.Experiments.point ~params:p tiny Harness.Systems.Respct
        (Harness.Experiments.Map 90) ~threads:2
    in
    ( Harness.Experiments.point_mops pt,
      Harness.Experiments.point_extra_float pt "flush_ns" )
  in
  let mops_off, flush_off = run false in
  let mops_on, flush_on = run true in
  Alcotest.(check bool)
    (Printf.sprintf "eADR flush time ~0 (%.0f vs %.0f ns)" flush_on flush_off)
    true
    (flush_on < flush_off /. 10.0);
  Alcotest.(check bool) "throughput not worse under eADR" true
    (mops_on >= mops_off *. 0.9)

(* The rows one registry entry prints for [scale]. *)
let figure_rows ?(scale = tiny) name =
  let f =
    List.find
      (fun (f : Harness.Figures.figure) -> f.Harness.Figures.name = name)
      Harness.Figures.all
  in
  List.concat_map
    (fun (t : Harness.Figures.table) -> t.Harness.Figures.rows)
    (fst (Obs.Jobs.run (f.Harness.Figures.jobs (Harness.Figures.setup scale))))

(* The non-PCSO ablation at the workload level: running the full ResPCT
   HashMap on word-granular write-back hardware must eventually produce a
   recovery mismatch (DESIGN.md ablation 1). Covered at cell granularity in
   test_respct; here we only ensure the flag plumbs through the harness. *)
let test_fig10_shape () =
  let rows = figure_rows "fig10" in
  Alcotest.(check int) "five configurations" 5 (List.length rows);
  List.iter
    (fun (_name, cells) -> Alcotest.(check int) "three workloads" 3 (List.length cells))
    rows;
  (* Transient<DRAM> row is the normalisation base: all 1.00 *)
  let _, base = List.hd rows in
  List.iter (fun c -> Alcotest.(check string) "unit base" "1.00" c) base

let test_fig12_rows () =
  let rows = figure_rows "fig12" in
  List.iter
    (fun (label, cells) ->
      Alcotest.(check bool) (label ^ " recovery time parses") true
        (float_of_string (List.nth cells 0) >= 0.0);
      Alcotest.(check bool) "entries scanned" true
        (int_of_string (List.nth cells 1) > 0))
    rows

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_table_render () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Table.print ~out:ppf ~title:"t" ~header:[ "a"; "b" ]
    [ ("row1", [ "1" ]); ("row2", [ "2" ]) ];
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "title present" true (contains s "== t ==");
  Alcotest.(check bool) "rows present" true
    (contains s "row1" && contains s "row2");
  (* padding: every data row has the same width *)
  let lines =
    List.filter (fun l -> String.length l > 0 && l.[0] = '|')
      (String.split_on_char '\n' s)
  in
  let widths = List.sort_uniq compare (List.map String.length lines) in
  Alcotest.(check int) "aligned" 1 (List.length widths)

let test_loc_report () =
  (* dune runs tests inside _build: the sources are one level up. *)
  let rows =
    List.concat_map
      (fun root -> Harness.Loc_report.rows ~root ())
      [ "."; ".."; "../.."; "../../.." ]
  in
  match rows with
  | [] -> Alcotest.fail "sources not found"
  | rows ->
      List.iter
        (fun (name, cells) ->
          let instrumented = int_of_string (List.nth cells 0) in
          let total = int_of_string (List.nth cells 1) in
          Alcotest.(check bool) (name ^ " counts sane") true
            (instrumented > 0 && instrumented < total))
        rows

(* ------------------------------------------------------------------ *)
(* The recorded-run audit (the section 6 automation extension) *)

let traced_queue_world () =
  let mem =
    Simnvm.Memsys.create
      { Simnvm.Memsys.default_config with Simnvm.Memsys.nvm_words = 1 lsl 18 }
  in
  let sched = Simsched.Scheduler.create ~seed:3 () in
  let env = Simsched.Env.make mem sched in
  let cfg =
    {
      Respct.Runtime.period_ns = 1.0e9 (* no checkpoint during the trace *);
      flusher_pool = 2;
      mode = Respct.Runtime.Full;
      max_threads = 4;
      registry_per_slot = 4096;
      integrity = false;
      pipeline = false;
    }
  in
  let rt = Respct.Runtime.create ~cfg env in
  (mem, sched, rt)

let test_advisor_queue_war_rule () =
  let _mem, sched, rt = traced_queue_world () in
  let q = ref None in
  ignore
    (Respct.Runtime.spawn rt ~slot:0 (fun _ctx ->
         let queue = Pds.Queue_respct.create rt ~slot:0 in
         q := Some queue;
         Respct.Runtime.rp rt ~slot:0 1;
         for i = 1 to 20 do
           Pds.Queue_respct.enqueue queue ~slot:0 i;
           ignore (Pds.Queue_respct.dequeue queue ~slot:0);
           Respct.Runtime.rp rt ~slot:0 2
         done));
  let (), report =
    Analysis.Audit.watch (Simsched.Scheduler.trace_bus sched) (fun () ->
        match Simsched.Scheduler.run sched with
        | Simsched.Scheduler.Completed -> ()
        | Simsched.Scheduler.Crash_interrupt _ -> Alcotest.fail "crash")
  in
  let heap_base = (Respct.Runtime.layout rt).Respct.Layout.heap_base in
  let on_heap = List.filter (fun a -> a >= heap_base) in
  let queue = Option.get !q in
  let head = Respct.Incll.record (Pds.Queue_respct.head_cell queue) in
  let tail = Respct.Incll.record (Pds.Queue_respct.tail_cell queue) in
  (* The rule derives exactly our instrumentation choices: head and tail
     pointers are WAR across restart points -> they are InCLL variables,
     and nothing else on the heap is. *)
  Alcotest.(check (list int)) "exactly head and tail need logging"
    (List.sort compare [ head; tail ])
    (on_heap report.Analysis.Audit.needs_logging);
  (* one segment per restart point: the first plus twenty in the loop *)
  Alcotest.(check int) "segments seen" 21
    report.Analysis.Audit.segments;
  Alcotest.(check bool) "write-only data exists (payload words)" true
    (on_heap report.Analysis.Audit.write_only <> [])

(* The transition from Written back to a read on the address path: in
   one segment, address A is stored, loaded and stored again (its first
   access is a write, so re-execution is idempotent) while B is loaded
   and then stored (a WAR). Only B needs logging. *)
let test_audit_read_after_write () =
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let sched = Simsched.Scheduler.create () in
  let env = Simsched.Env.make mem sched in
  let a = 64 and b = 128 in
  ignore
    (Simsched.Scheduler.spawn sched (fun () ->
         Simsched.Env.store env a 1;
         ignore (Simsched.Env.load env a);
         Simsched.Env.store env a 2;
         ignore (Simsched.Env.load env b);
         Simsched.Env.store env b 3;
         Simnvm.Event.emit
           (Simsched.Scheduler.trace_bus sched)
           (Simnvm.Event.Restart_point
              { tid = Simsched.Scheduler.current_tid sched; id = 1 })));
  let (), report =
    Analysis.Audit.watch (Simsched.Scheduler.trace_bus sched) (fun () ->
        match Simsched.Scheduler.run sched with
        | Simsched.Scheduler.Completed -> ()
        | Simsched.Scheduler.Crash_interrupt _ -> Alcotest.fail "crash")
  in
  Alcotest.(check (list int)) "B, not A, needs logging" [ b ]
    report.Analysis.Audit.needs_logging;
  Alcotest.(check (list int)) "A is write-only" [ a ]
    report.Analysis.Audit.write_only;
  Alcotest.(check int) "one segment" 1 report.Analysis.Audit.segments

let test_advisor_race_freedom_of_map () =
  let mem =
    Simnvm.Memsys.create
      { Simnvm.Memsys.default_config with Simnvm.Memsys.nvm_words = 1 lsl 18 }
  in
  let sched = Simsched.Scheduler.create ~seed:5 () in
  let env = Simsched.Env.make mem sched in
  let cfg =
    {
      Respct.Runtime.period_ns = 50_000.0;
      flusher_pool = 2;
      mode = Respct.Runtime.Full;
      max_threads = 4;
      registry_per_slot = 4096;
      integrity = false;
      pipeline = false;
    }
  in
  let rt = Respct.Runtime.create ~cfg env in
  Respct.Runtime.start rt;
  let m = ref None in
  (* Publication through a lock: the happens-before edge a correct pthread
     program gets from pthread_create / synchronised publication. Without
     it the checker rightly flags the init-vs-first-use accesses. *)
  let pub = Simsched.Mutex.create ~name:"publish" () in
  for w = 0 to 1 do
    ignore
      (Respct.Runtime.spawn rt ~slot:w (fun _ctx ->
           if w = 0 then
             Simsched.Mutex.with_lock sched pub (fun () ->
                 m := Some (Pds.Hashmap_respct.create rt ~slot:0 ~buckets:16));
           let rec wait_published () =
             let ready =
               Simsched.Mutex.with_lock sched pub (fun () -> !m <> None)
             in
             if not ready then begin
               Simsched.Scheduler.sleep sched 200.0;
               wait_published ()
             end
           in
           wait_published ();
           let map = Option.get !m in
           let rng = Simnvm.Rng.create (w + 11) in
           for i = 1 to 200 do
             ignore
               (Pds.Hashmap_respct.insert map ~slot:w
                  ~key:(Simnvm.Rng.int rng 64) ~value:i);
             Respct.Runtime.rp rt ~slot:w 1
           done;
           if w = 0 then Respct.Runtime.stop rt))
  done;
  let (), report =
    Analysis.Audit.watch (Simsched.Scheduler.trace_bus sched) (fun () ->
        match Simsched.Scheduler.run sched with
        | Simsched.Scheduler.Completed -> ()
        | Simsched.Scheduler.Crash_interrupt _ -> Alcotest.fail "crash")
  in
  let heap_base = (Respct.Runtime.layout rt).Respct.Layout.heap_base in
  (* The lock-per-bucket map keeps the section 2.1 assumption: the shared
     structure accesses are race-free. (Per-thread RP cells and tracking
     are private by construction.) *)
  Alcotest.(check int) "no data races on the shared structure" 0
    (List.length
       (List.filter
          (fun r -> r.Analysis.Racecheck.addr >= heap_base)
          report.Analysis.Audit.races));
  Alcotest.(check int) "one segment per restart point (2 x 200)" 400
    report.Analysis.Audit.segments

(* ------------------------------------------------------------------ *)
(* Determinism of the structured-results path *)

(* Two same-seed runs must produce byte-identical JSON documents: the
   simulation is deterministic and the exporter iterates only
   insertion-ordered structures (never hash tables). *)
let test_structured_results_deterministic () =
  let digest () =
    let pt =
      Harness.Experiments.point tiny Harness.Systems.Respct
        (Harness.Experiments.Map 50) ~threads:2
    in
    Obs.Json.to_string (Obs.Run.document [ Obs.Run.experiment "det" [ pt ] ])
  in
  let a = digest () in
  let b = digest () in
  Alcotest.(check bool) "non-trivial output" true (String.length a > 200);
  Alcotest.(check string)
    "byte-identical documents"
    (Digest.to_hex (Digest.string a))
    (Digest.to_hex (Digest.string b))

(* ------------------------------------------------------------------ *)
(* The figure registry at miniature scales: every figure and table runs,
   its rows fit its header, Figures 8-12 each contribute one experiment
   with points, and the JSON document is deterministic. *)

let miniature =
  {
    Harness.Figures.root =
      (* dune runs tests inside _build: the sources are one level up. *)
      Option.value ~default:"."
        (List.find_opt
           (fun r ->
             Sys.file_exists (Filename.concat r "lib/pds/hashmap_respct.ml"))
           [ "."; ".."; "../.."; "../../.." ]);
    scale =
      {
        Harness.Experiments.small with
        Harness.Experiments.sweep_threads = [ 4 ];
        duration_ns = 100_000.0;
        map_prefill = 500;
        buckets = 500;
        queue_prefill = 100;
        fig10_threads = 4;
        fig11_periods_ns = [ 64_000.0 ];
        fig12_buckets = [ 2_000 ];
      };
    apps =
      {
        Harness.App_experiments.small with
        Harness.App_experiments.matmul_n = 12;
        lr_points = 2_000;
        swaptions = 32;
        dedup_chunks = 200;
        kv_load = 300;
        kv_run = 900;
        kv_keys = 300;
        app_threads = 4;
      };
  }

let run_figures () =
  List.map
    (fun (f : Harness.Figures.figure) ->
      (f.Harness.Figures.name, Obs.Jobs.run (f.Harness.Figures.jobs miniature)))
    Harness.Figures.all

let with_json = [ "fig8"; "fig9"; "fig10"; "fig11"; "fig12" ]

let test_figures_registry () =
  Alcotest.(check (list string))
    "registry order"
    (with_json @ [ "fig13"; "fig14"; "tab2"; "tab3" ])
    (List.map
       (fun (f : Harness.Figures.figure) -> f.Harness.Figures.name)
       Harness.Figures.all);
  List.iter
    (fun (name, (tables, experiment)) ->
      Alcotest.(check bool) (name ^ " prints a table") true (tables <> []);
      List.iter
        (fun (t : Harness.Figures.table) ->
          Alcotest.(check bool) (t.Harness.Figures.title ^ " has rows") true
            (t.Harness.Figures.rows <> []);
          List.iter
            (fun (label, cells) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: row %s fits the header" name label)
                (List.length t.Harness.Figures.header)
                (1 + List.length cells))
            t.Harness.Figures.rows)
        tables;
      (* Figures 10 and 13 are normalised to their Transient<DRAM> row. *)
      if List.mem name [ "fig10"; "fig13" ] then
        List.iter
          (fun (t : Harness.Figures.table) ->
            match List.assoc_opt "Transient<DRAM>" t.Harness.Figures.rows with
            | None -> Alcotest.fail (name ^ ": no Transient<DRAM> row")
            | Some cells ->
                List.iter
                  (Alcotest.(check string) (name ^ ": Transient<DRAM> cell")
                     "1.00")
                  cells)
          tables;
      match experiment with
      | None ->
          Alcotest.(check bool) (name ^ " has no JSON experiment") false
            (List.mem name with_json)
      | Some j ->
          Alcotest.(check (option string))
            (name ^ " experiment name") (Some name)
            (Option.map
               (function Obs.Json.String s -> s | _ -> "")
               (Obs.Json.member "experiment" j));
          Alcotest.(check bool) (name ^ " has points") true
            (match Obs.Json.member "points" j with
            | Some (Obs.Json.List (_ :: _)) -> true
            | _ -> false))
    (run_figures ())

let test_figures_json_deterministic () =
  let document () =
    Obs.Json.to_string
      (Obs.Run.document
         (List.filter_map (fun (_, (_, e)) -> e) (run_figures ())))
  in
  let a = document () in
  Alcotest.(check string) "byte-identical documents" a (document ())

(* A figure's jobs are independent: run last to first, Figures 9-12
   give the tables and JSON of the in-order run, byte for byte — what a
   pool that runs them in any order relies on. *)
let test_figure_jobs_any_order () =
  let output (tables, experiment) =
    let buf = Buffer.create 1024 in
    let out = Format.formatter_of_buffer buf in
    List.iter
      (fun (t : Harness.Figures.table) ->
        Harness.Table.print ~out ~title:t.Harness.Figures.title
          ~header:t.Harness.Figures.header t.Harness.Figures.rows)
      tables;
    Format.pp_print_flush out ();
    Buffer.contents buf
    ^ Option.fold ~none:"" ~some:Obs.Json.to_string experiment
  in
  List.iter
    (fun (f : Harness.Figures.figure) ->
      if List.mem f.Harness.Figures.name [ "fig9"; "fig10"; "fig11"; "fig12" ]
      then begin
        let t = f.Harness.Figures.jobs miniature in
        let jobs = t.Obs.Jobs.jobs in
        let n = Array.length jobs in
        let backward = Array.make n None in
        for i = n - 1 downto 0 do
          backward.(i) <- Some (jobs.(i) ())
        done;
        Alcotest.(check bool)
          (f.Harness.Figures.name ^ " has jobs")
          true (n > 0);
        Alcotest.(check string)
          (f.Harness.Figures.name ^ " output independent of job order")
          (output (Obs.Jobs.run t))
          (output (t.Obs.Jobs.close (Array.map Option.get backward)))
      end)
    Harness.Figures.all

(* ------------------------------------------------------------------ *)
(* Golden outputs pinned across the fast-path kernel rewrite *)

(* Figure 9 at the default (small) scale, captured from the tree before
   the memory-system/scheduler hot paths were rewritten. The simulation is
   seeded, so any byte of drift here means the rewrite (or a later change)
   altered observable behaviour, not just speed. *)
let fig9_golden =
  {|
== Figure 9 ==
+-----------------+-------+------+------+------+
| threads:        | 1     | 4    | 16   | 64   |
+-----------------+-------+------+------+------+
| Transient<DRAM> | 12.30 | 2.60 | 2.58 | 2.60 |
| Transient<NVMM> | 12.30 | 2.60 | 2.58 | 2.60 |
| ResPCT          | 5.17  | 2.12 | 2.16 | 2.24 |
| PMThreads       | 9.71  | 2.45 | 2.46 | 2.49 |
| Montage         | 4.21  | 2.01 | 2.08 | 2.09 |
| Clobber-NVM     | 1.46  | 1.63 | 1.62 | 1.63 |
| Quadra/Trinity  | 2.14  | 2.48 | 2.46 | 2.47 |
| FriedmanQueue   | 2.08  | 1.60 | 1.59 | 1.60 |
+-----------------+-------+------+------+------+
|}

let test_fig9_golden () =
  let buf = Buffer.create 1024 in
  let out = Format.formatter_of_buffer buf in
  let scale = Harness.Experiments.small in
  Harness.Table.print ~out ~title:"Figure 9"
    ~header:
      ("threads:"
      :: List.map string_of_int scale.Harness.Experiments.sweep_threads)
    (figure_rows ~scale "fig9");
  Alcotest.(check string) "fig9 byte-identical" fig9_golden (Buffer.contents buf)

(* The crash-matrix smoke run: same capture, same guarantee. The verdict
   counts (boundaries and adversarial images explored per scenario) pin
   the exploration itself, not just the pass/fail bit. *)
let crashmatrix_golden =
  {|crash matrix (smoke, PCSO)
  respct-map         ops=18  boundaries=276   images=2370  ok
  respct-queue       ops=14  boundaries=193   images=1429  ok
  respct-raw         ops=18  boundaries=126   images=892   ok
  clobber-map        ops=18  boundaries=83    images=182   ok
  clobber-queue      ops=14  boundaries=139   images=353   ok
  quadra-map         ops=18  boundaries=51    images=95    ok
  quadra-queue       ops=14  boundaries=87    images=182   ok
  soft-map           ops=18  boundaries=64    images=109   ok
  friedman-queue     ops=14  boundaries=86    images=152   ok
  pmthreads-map      ops=18  boundaries=0     images=0     ok
  pmthreads-queue    ops=14  boundaries=0     images=0     ok
  montage-map        ops=18  boundaries=50    images=224   ok
  montage-queue      ops=14  boundaries=72    images=376   ok
  dali-map           ops=18  boundaries=44    images=237   ok
  schedule sweeps: 2 specs, ok
crash matrix smoke: PASS
|}

(* One dimension's job list at the smoke preset: its verdict and the text
   the CLI prints. *)
let smoke_output d =
  let r =
    Obs.Jobs.run
      (Result.get_ok (Crashtest.Matrix.jobs d Crashtest.Matrix.smoke))
  in
  (r.Obs.Jobs.ok, r.Obs.Jobs.text)

let test_crashmatrix_golden () =
  let ok, text = smoke_output Crashtest.Matrix.Matrix in
  Alcotest.(check bool) "matrix passes" true ok;
  Alcotest.(check string) "verdict counts byte-identical" crashmatrix_golden
    text

(* The three expectation dimensions at the smoke preset, pinned the same
   way: verdict rows, shrunk counterexamples and their [# crashmatrix]
   replay lines, which CI and [replay] read back. *)
let ablation_golden =
  {|ablation asymmetry check (smoke): word-granular write-back
  respct-map         boundaries=276   images=4666  breaks (expected: relies on PCSO)
    first: crash@163 image=word:817: epoch 1: recovered {2->106, 4->102, 5->107, 8->105,
9->103}, last checkpoint had {2->106, 4->102, 5->100, 8->105,
9->103}
    counterexample respct-map (shrunk to 8 ops):
      seeds: scheduler=1 memory=1 pcso=false
      crash index 163, image word:817
      epoch 1: recovered {2->106, 4->102, 5->107, 8->105,
9->103}, last checkpoint had {2->106, 4->102, 5->100, 8->105,
9->103}
      # crashmatrix scenario=respct-map ops=8 sched-seed=1 mem-seed=1 pcso=false crash-index=163 image=word:817
  respct-queue       boundaries=193   images=4742  breaks (expected: relies on PCSO)
    first: crash@172 image=word:857: recovery raised Failure("persisted queue chain is cyclic")
    counterexample respct-queue (shrunk to 12 ops):
      seeds: scheduler=1 memory=1 pcso=false
      crash index 172, image word:857
      recovery raised Failure("persisted queue chain is cyclic")
      # crashmatrix scenario=respct-queue ops=12 sched-seed=1 mem-seed=1 pcso=false crash-index=172 image=word:857
  respct-raw         boundaries=126   images=1352  holds (expected: explicit flush ordering)
  clobber-map        boundaries=83    images=232   holds (expected: explicit flush ordering)
  clobber-queue      boundaries=139   images=460   holds (expected: explicit flush ordering)
  quadra-map         boundaries=51    images=7     breaks (expected: relies on PCSO)
    first: crash@2 image=word:17: torn line 2: persisted state unreachable under PCSO
    counterexample quadra-map (shrunk to 4 ops):
      seeds: scheduler=1 memory=1 pcso=false
      crash index 2, image word:17
      torn line 2: persisted state unreachable under PCSO
      # crashmatrix scenario=quadra-map ops=4 sched-seed=1 mem-seed=1 pcso=false crash-index=2 image=word:17
  quadra-queue       boundaries=87    images=20    breaks (expected: relies on PCSO)
    first: crash@8 image=word:11: torn line 1: persisted state unreachable under PCSO
    counterexample quadra-queue (shrunk to 2 ops):
      seeds: scheduler=1 memory=1 pcso=false
      crash index 8, image word:11
      torn line 1: persisted state unreachable under PCSO
      # crashmatrix scenario=quadra-queue ops=2 sched-seed=1 mem-seed=1 pcso=false crash-index=8 image=word:11
  soft-map           boundaries=64    images=119   holds (expected: explicit flush ordering)
  friedman-queue     boundaries=86    images=156   holds (expected: explicit flush ordering)
  pmthreads-map      boundaries=0     images=0     holds (expected: explicit flush ordering)
  pmthreads-queue    boundaries=0     images=0     holds (expected: explicit flush ordering)
  montage-map        boundaries=50    images=962   holds (expected: explicit flush ordering)
  montage-queue      boundaries=72    images=1332  holds (expected: explicit flush ordering)
  dali-map           boundaries=44    images=981   holds (expected: explicit flush ordering)
ablation asymmetry: PASS
|}

let faults_golden =
  {|fault-injection check (smoke): seeds [7]
  respct-map-integrity     boundaries=365   images=6246  detects (every fault detected or exactly repaired)
  respct-queue-integrity   boundaries=276   images=4286  detects (every fault detected or exactly repaired)
  respct-map-noverify      boundaries=365   images=130   breaks (expected: recovery skips verification)
    first: crash@36 image=baseline fault-seed=7: recovery raised Simnvm.Memsys.Media_error(8, 1, 1)
    counterexample respct-map-noverify (shrunk to 0 ops):
      seeds: scheduler=1 memory=1 pcso=true
      crash index 36, image baseline fault-seed=7
      recovery raised Simnvm.Memsys.Media_error(8, 1, 1)
      # crashmatrix scenario=respct-map-noverify ops=0 sched-seed=1 mem-seed=1 pcso=true crash-index=36 image=baseline fault-seed=7
fault injection: PASS
|}

let pipeline_golden =
  {|pipelined checkpointing check (smoke)
  respct-map-pipeline                      boundaries=290   images=2439  holds (recovers at every mid-overlap boundary)
  respct-queue-pipeline                    boundaries=191   images=1487  holds (recovers at every mid-overlap boundary)
  respct-map-integrity-pipeline            boundaries=374   images=6648  holds (recovers at every mid-overlap boundary)
  respct-map-pipeline-mutant-earlyseal     boundaries=394   images=1346  breaks (expected: planted overlap-protocol mutant)
    first: crash@142 image=baseline: epoch 1: recovered {}, last checkpoint had {2->106, 4->102, 5->100, 8->105,
9->103}
    counterexample respct-map-pipeline-mutant-earlyseal (shrunk to 4 ops):
      seeds: scheduler=1 memory=1 pcso=true
      crash index 142, image baseline
      epoch 1: recovered {}, last checkpoint had {2->106, 4->102, 5->100, 8->105,
9->103}
      # crashmatrix scenario=respct-map-pipeline-mutant-earlyseal ops=4 sched-seed=1 mem-seed=1 pcso=true crash-index=142 image=baseline
  respct-map-pipeline-mutant-nowait        boundaries=326   images=3106  breaks (expected: planted overlap-protocol mutant)
    first: crash@274 image=line:104: epoch 1: recovered {2->106, 4->102, 5->100, 8->105,
9->121}, last checkpoint had {2->106, 4->102, 5->100, 8->105,
9->103}
    counterexample respct-map-pipeline-mutant-nowait (shrunk to 14 ops):
      seeds: scheduler=1 memory=1 pcso=true
      crash index 274, image line:104
      epoch 1: recovered {2->106, 4->102, 5->100, 8->105,
9->121}, last checkpoint had {2->106, 4->102, 5->100, 8->105,
9->103}
      # crashmatrix scenario=respct-map-pipeline-mutant-nowait ops=14 sched-seed=1 mem-seed=1 pcso=true crash-index=274 image=line:104
  respct-map-pipeline-churn                boundaries=317   images=2849  holds (recovers at every mid-overlap boundary)
  respct-map-pipeline-churn-mutant-earlyreclaim boundaries=464   images=2564  breaks (expected: planted overlap-protocol mutant)
    first: crash@277 image=line:102: epoch 2: recovered {2->101, 3->102, 4->100, 4->103, 5->104, 6->105,
7->106}, last checkpoint had {1->100, 2->101, 3->102, 4->103, 5->104, 6->105,
7->106}
    counterexample respct-map-pipeline-churn-mutant-earlyreclaim (shrunk to 8 ops):
      seeds: scheduler=1 memory=1 pcso=true
      crash index 277, image line:102
      epoch 2: recovered {2->101, 3->102, 4->100, 4->103, 5->104, 6->105,
7->106}, last checkpoint had {1->100, 2->101, 3->102, 4->103, 5->104, 6->105,
7->106}
      # crashmatrix scenario=respct-map-pipeline-churn-mutant-earlyreclaim ops=8 sched-seed=1 mem-seed=1 pcso=true crash-index=277 image=line:102
  pipeline schedule sweeps: 1 specs, ok
pipelined checkpointing: PASS
|}

let check_dimension_golden d golden () =
  let ok, text = smoke_output d in
  Alcotest.(check bool) "every expectation holds" true ok;
  Alcotest.(check string) "output byte-identical" golden text

(* The lint's JSON output is a CI artifact: the diagnostics document for
   a fixed multi-finding program is pinned byte-for-byte, which is what
   makes the `analyze --json` gate diffable. Findings are normalized
   (sorted and deduped), so the order below is a contract, not an
   accident of CFG traversal. *)
let lint_golden =
  {|{"schema":"respct-lint/v1","program":"lint-golden","errors":4,"warnings":2,"findings":[{"rule":"cross-line-torn-logging","severity":"warning","thread":"main","var":null,"lock":null,"rp":null,"site":null,"message":"thread main can exit with {a, b} dirty across 2 cache lines; a crash persists an arbitrary subset of the lines, tearing the record"},{"rule":"missing-psync-before-dependent-publish","severity":"error","thread":"main","var":"b","lock":null,"rp":null,"site":"main[2]","message":"thread main publishes persistent b at main[2] while {a} still has an unfenced pwb; without a psync the publish can persist first"},{"rule":"missing-psync-before-dependent-publish","severity":"error","thread":"main","var":"a","lock":null,"rp":null,"site":"main[7]","message":"thread main publishes persistent a at main[7] while {b} still has an unfenced pwb; without a psync the publish can persist first"},{"rule":"missing-pwb-before-restart-point","severity":"error","thread":"main","var":"a","lock":null,"rp":1,"site":"main[9]","message":"restart point 1 in thread main at main[9] can be reached with persistent a stored but never pwb'd; rollback would replay a store the image never received"},{"rule":"missing-pwb-before-restart-point","severity":"error","thread":"main","var":"b","lock":null,"rp":1,"site":"main[9]","message":"restart point 1 in thread main at main[9] can be reached with persistent b stored but never pwb'd; rollback would replay a store the image never received"},{"rule":"redundant-pwb","severity":"warning","thread":"main","var":"a","lock":null,"rp":null,"site":"main[4]","message":"pwb of a in thread main at main[4] is redundant on every path: nothing on its line can be dirty here"}]}|}

let lint_golden_prog =
  let open Analysis in
  {
    Ir.pname = "lint-golden";
    persistent = [ ("a", 0); ("b", 0) ];
    transient = [ ("t", 0) ];
    threads =
      [
        {
          Ir.tname = "main";
          body =
            [
              Ir.Assign ("a", Ir.Int 1);
              Ir.Pwb "a";
              Ir.Assign ("b", Ir.Int 1);
              Ir.Psync;
              Ir.Pwb "a";
              Ir.Pwb "b";
              Ir.Rp 0;
              Ir.Assign ("a", Ir.Int 2);
              Ir.Assign ("b", Ir.Int 2);
              Ir.Rp 1;
            ];
        };
      ];
  }

let test_lint_json_golden () =
  let render () =
    Obs.Json.to_string
      (Analysis.Lint.to_json lint_golden_prog
         (Analysis.Lint.run lint_golden_prog))
  in
  Alcotest.(check string) "lint json byte-identical" lint_golden (render ());
  Alcotest.(check string) "re-run produces the same bytes" (render ())
    (render ())

(* The static analyzer and the recorded-run audit automate the same
   section 3.3.2 rule from opposite ends; on the IR corpus they must
   agree exactly (every logged variable is dynamically WAR and every
   dynamic WAR variable statically logged), every restart point must
   close one segment, and the locked corpus programs must trace
   race-free. *)
let test_static_dynamic_advisor_agree () =
  let expected =
    [
      ("bank-transfer", ([ "acct0"; "acct1"; "acct2" ], 12));
      ("kv-update", ([ "size"; "slot0"; "slot1" ], 6));
      ("wal-append", ([], 6));
    ]
  in
  List.iter
    (fun (name, prog) ->
      let log, segments = List.assoc name expected in
      let cc = Analysis.Audit.cross_check_ir ~n_ops:6 prog in
      Alcotest.(check (list string)) (name ^ ": static log") log
        cc.Analysis.Audit.cc_static_log;
      Alcotest.(check (list string)) (name ^ ": dynamic log = static log")
        cc.Analysis.Audit.cc_static_log
        cc.Analysis.Audit.cc_dynamic_log;
      Alcotest.(check int)
        (name ^ ": persistent accesses race-free")
        0
        (List.length cc.Analysis.Audit.cc_races);
      Alcotest.(check int)
        (name ^ ": restart points segmented the trace")
        segments cc.Analysis.Audit.cc_segments)
    (Analysis.Corpus.all @ Analysis.Corpus.flush_corpus)

let () =
  Alcotest.run "harness"
    [
      ( "workloads",
        [
          Alcotest.test_case "map point per system" `Quick test_map_point_sane;
          Alcotest.test_case "queue point per system" `Quick
            test_queue_point_sane;
          Alcotest.test_case "checkpoints during measurement" `Quick
            test_respct_checkpoints_during_measurement;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "eADR makes flushes free" `Quick test_eadr_ablation;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig10 shape" `Quick test_fig10_shape;
          Alcotest.test_case "fig12 rows" `Quick test_fig12_rows;
          Alcotest.test_case "structured results deterministic" `Quick
            test_structured_results_deterministic;
        ] );
      ( "figures",
        [
          Alcotest.test_case "registry at miniature scales" `Quick
            test_figures_registry;
          Alcotest.test_case "json byte-identical across runs" `Quick
            test_figures_json_deterministic;
          Alcotest.test_case "jobs give the same output in any order" `Quick
            test_figure_jobs_any_order;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "loc report" `Quick test_loc_report;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "fig9 table" `Quick test_fig9_golden;
          Alcotest.test_case "crashmatrix smoke" `Quick test_crashmatrix_golden;
          Alcotest.test_case "crashmatrix ablation check" `Quick
            (check_dimension_golden Crashtest.Matrix.Ablation_check
               ablation_golden);
          Alcotest.test_case "crashmatrix faults check" `Quick
            (check_dimension_golden Crashtest.Matrix.Faults_check
               faults_golden);
          Alcotest.test_case "crashmatrix pipeline check" `Slow
            (check_dimension_golden Crashtest.Matrix.Pipeline_check
               pipeline_golden);
          Alcotest.test_case "lint diagnostics json" `Quick
            test_lint_json_golden;
        ] );
      ( "rp advisor",
        [
          Alcotest.test_case "queue WAR rule matches instrumentation" `Quick
            test_advisor_queue_war_rule;
          Alcotest.test_case "read after write is not WAR" `Quick
            test_audit_read_after_write;
          Alcotest.test_case "map trace is race-free" `Quick
            test_advisor_race_freedom_of_map;
          Alcotest.test_case "static plan contains dynamic advisor" `Quick
            test_static_dynamic_advisor_agree;
        ] );
    ]
