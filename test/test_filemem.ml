(* Filemem backend tests.

   The differential property drives one seeded op sequence through two
   [Simnvm.Backend.t] records — Memsys wrapped by [of_memsys], and a
   file-backed Filemem image — and demands they agree on every loaded
   value, on the shared stats counters and on the durable NVMM image
   after a psync (and after a simulated crash). Both worlds run with
   spontaneous eviction off and the Memsys cache sized so no capacity
   eviction fires: eviction policy is exactly where the two are allowed
   to differ (Memsys models a finite cache, the file backend an
   unbounded mirror), so the property pins everything else.

   The rest covers the self-describing header (round-trip, rejection of
   short/garbled files) and the satellite requirement that a truncated
   image grades into the recovery damage taxonomy instead of escaping
   as a raw Unix/Invalid_argument exception. *)

module M = Simnvm.Memsys
module B = Simnvm.Backend
module Rng = Simnvm.Rng

let line_words = 8
let nvm_words = 4096
let dram_words = 512

let mem_config =
  {
    M.default_config with
    M.nvm_words;
    M.dram_words;
    M.line_words;
    (* cache big enough that no capacity eviction can fire *)
    M.sets = 2048;
    M.ways = 4;
    M.evict_rate = 0.0;
  }

let file_config =
  {
    Filemem.default_config with
    Filemem.nvm_words;
    Filemem.dram_words;
    Filemem.line_words;
    Filemem.evict_rate = 0.0;
  }

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "respct-test-filemem-%d-%d.img" (Unix.getpid ()) !n)

let with_file_backend ?(cfg = file_config) ?meta f =
  let path = tmp_path () in
  let fm = Filemem.create ?meta cfg ~path in
  Fun.protect
    ~finally:(fun () ->
      Filemem.close fm;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f fm)

(* ------------------------------------------------------------------ *)
(* Differential parity. *)

type op = Store of int * int | Load of int | Pwb of int | Psync

let pp_op ppf = function
  | Store (a, v) -> Fmt.pf ppf "store %d %d" a v
  | Load a -> Fmt.pf ppf "load %d" a
  | Pwb a -> Fmt.pf ppf "pwb %d" a
  | Psync -> Fmt.pf ppf "psync"

(* Word addresses over both regions; pwb only targets NVMM (write-back
   of volatile lines is a no-op on the file backend by design). *)
let ops_of_seed ~n seed =
  let rng = Rng.create seed in
  let nvm_addr () = Rng.int rng nvm_words in
  let any_addr () =
    if Rng.int rng 4 = 0 then nvm_words + Rng.int rng dram_words
    else nvm_addr ()
  in
  List.init n (fun _ ->
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> Store (any_addr (), Rng.int rng 1_000_000)
      | 4 | 5 -> Load (any_addr ())
      | 6 | 7 -> Pwb (nvm_addr ())
      | 8 -> Psync
      | _ -> Load (nvm_addr ()))

let arb_parity_seed ~n =
  QCheck.make
    ~print:(fun seed ->
      Fmt.str "@[<v>parity seed=%d n=%d:@ %a@]" seed n
        (Fmt.list ~sep:Fmt.sp pp_op) (ops_of_seed ~n seed))
    QCheck.Gen.(1 -- 10_000)

let run_op (b : B.t) = function
  | Store (a, v) ->
      b.B.store a v;
      None
  | Load a -> Some (b.B.load a)
  | Pwb a ->
      b.B.pwb a;
      None
  | Psync ->
      b.B.psync ();
      None

let parity_prop seed =
  let ops = ops_of_seed ~n:400 seed in
  let m = M.create mem_config in
  let bm = B.of_memsys m in
  with_file_backend (fun fm ->
      let bf = Filemem.backend fm in
      List.iteri
        (fun i op ->
          let rm = run_op bm op and rf = run_op bf op in
          if rm <> rf then
            QCheck.Test.fail_reportf "op %d (%a): memsys=%a filemem=%a" i pp_op
              op
              Fmt.(option ~none:(any "()") int)
              rm
              Fmt.(option ~none:(any "()") int)
              rf)
        ops;
      bm.B.psync ();
      bf.B.psync ();
      for a = 0 to nvm_words - 1 do
        let dm = bm.B.persisted a and df = bf.B.persisted a in
        if dm <> df then
          QCheck.Test.fail_reportf
            "durable image diverges at %d after final psync: memsys=%d \
             filemem=%d"
            a dm df
      done;
      let sm = M.stats m and sf = Filemem.stats fm in
      let counters (s : Simnvm.Stats.t) =
        Simnvm.Stats.(s.loads, s.stores, s.pwbs, s.psyncs)
      in
      if counters sm <> counters sf then
        QCheck.Test.fail_reportf
          "stats diverge: memsys loads/stores/pwbs/psyncs=%a filemem=%a"
          Fmt.(Dump.pair int (Dump.pair int (Dump.pair int int)))
          (let a, b, c, d = counters sm in
           (a, (b, (c, d))))
          Fmt.(Dump.pair int (Dump.pair int (Dump.pair int int)))
          (let a, b, c, d = counters sf in
           (a, (b, (c, d))));
      (* a crash drops exactly the same writes on both sides *)
      bm.B.crash ();
      bf.B.crash ();
      for a = 0 to nvm_words + dram_words - 1 do
        let vm = bm.B.load a and vf = bf.B.load a in
        if vm <> vf then
          QCheck.Test.fail_reportf
            "post-crash state diverges at %d: memsys=%d filemem=%d" a vm vf
      done;
      true)

let parity_test =
  Gen_common.to_alcotest ~suite:"filemem"
    (QCheck.Test.make ~count:40 ~name:"memsys/filemem backend parity"
       (arb_parity_seed ~n:400) parity_prop)

(* ------------------------------------------------------------------ *)
(* Header round-trip and rejection. *)

let header_roundtrip () =
  let path = tmp_path () in
  let meta =
    { Filemem.max_threads = 5; Filemem.registry_per_slot = 777;
      Filemem.integrity = true }
  in
  let cfg =
    { file_config with Filemem.nvm_words = 2048; Filemem.dram_words = 256 }
  in
  let fm = Filemem.create ~meta cfg ~path in
  Filemem.persisted fm 0 |> ignore;
  Filemem.close fm;
  (match Filemem.open_existing ~path () with
  | Error e -> Alcotest.failf "reopen failed: %a" Filemem.pp_open_error e
  | Ok fm ->
      let cfg' = Filemem.config fm in
      Alcotest.(check int) "nvm_words" 2048 cfg'.Filemem.nvm_words;
      Alcotest.(check int) "dram_words" 256 cfg'.Filemem.dram_words;
      Alcotest.(check int) "line_words" line_words cfg'.Filemem.line_words;
      let meta' = Filemem.meta fm in
      Alcotest.(check int) "max_threads" 5 meta'.Filemem.max_threads;
      Alcotest.(check int) "registry_per_slot" 777
        meta'.Filemem.registry_per_slot;
      Alcotest.(check bool) "integrity" true meta'.Filemem.integrity;
      Alcotest.(check bool) "not truncated" false (Filemem.was_truncated fm);
      Filemem.close fm);
  Sys.remove path

let header_rejection () =
  let path = tmp_path () in
  let write_bytes s =
    let oc = Out_channel.open_bin path in
    Out_channel.output_string oc s;
    Out_channel.close oc
  in
  write_bytes "short";
  (match Filemem.open_existing ~path () with
  | Error (Filemem.Too_short _) -> ()
  | Error e -> Alcotest.failf "expected Too_short, got %a" Filemem.pp_open_error e
  | Ok _ -> Alcotest.fail "short file opened");
  write_bytes (String.make 4096 'x');
  (match Filemem.open_existing ~path () with
  | Error (Filemem.Bad_magic _) -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got %a" Filemem.pp_open_error e
  | Ok _ -> Alcotest.fail "garbage file opened");
  (* flip one header byte past the magic: checksum must catch it *)
  let fm = Filemem.create file_config ~path in
  Filemem.close fm;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 17 Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\xff" 0 1);
  Unix.close fd;
  (match Filemem.open_existing ~path () with
  | Error (Filemem.Header_corrupt | Filemem.Bad_geometry _) -> ()
  | Error e ->
      Alcotest.failf "expected Header_corrupt, got %a" Filemem.pp_open_error e
  | Ok _ -> Alcotest.fail "corrupt header opened");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* psync is load-bearing: the planted elision mutant observably loses
   the write-back. *)

let mutant_elides_psync () =
  with_file_backend (fun fm ->
      let b = Filemem.backend fm in
      b.B.store 3 42;
      b.B.pwb 3;
      b.B.psync ();
      Alcotest.(check int) "durable after honest psync" 42
        (Filemem.persisted fm 3);
      Filemem.arm_mutant fm Filemem.Elide_psync;
      b.B.store 3 43;
      b.B.pwb 3;
      b.B.psync ();
      Alcotest.(check int) "elided psync leaves old durable value" 42
        (Filemem.persisted fm 3);
      Alcotest.(check int) "coherent view still sees the store" 43 (b.B.load 3))

(* ------------------------------------------------------------------ *)
(* Truncation grades into the damage taxonomy (satellite): a checkpointed
   image cut short must reopen (sparse regrowth), flag [was_truncated],
   and verified recovery must return a graded verdict — never escape
   with a raw exception. *)

let small_meta =
  { Filemem.max_threads = 1; Filemem.registry_per_slot = 256;
    Filemem.integrity = true }

let small_cfg =
  { file_config with Filemem.nvm_words = 8192; Filemem.dram_words = 1024 }

(* Run a tiny checkpointed workload against [path] and leave the file on
   disk (closed). *)
let build_checkpointed_image path =
  let fm = Filemem.create ~meta:small_meta small_cfg ~path in
  let sched = Simsched.Scheduler.create ~seed:11 () in
  let env = Simsched.Env.make_backend (Filemem.backend fm) sched in
  let rcfg =
    {
      Respct.Runtime.default_config with
      Respct.Runtime.max_threads = 1;
      Respct.Runtime.registry_per_slot = 256;
      Respct.Runtime.integrity = true;
    }
  in
  let rt = Respct.Runtime.create ~cfg:rcfg env in
  let cells = ref None in
  let done_ = ref false in
  (* Exactly three checkpoints, then the worker stops: a count, not a
     period, so this drives [run_checkpoint] by hand rather than
     [Runtime.start]'s open-ended loop. *)
  ignore
    (Simsched.Scheduler.spawn ~name:"coord" sched (fun () ->
         while Option.is_none !cells do
           Simsched.Scheduler.sleep sched 500.0
         done;
         for _ = 1 to 3 do
           Simsched.Scheduler.sleep sched 10_000.0;
           Respct.Runtime.run_checkpoint rt
         done;
         done_ := true));
  ignore
    (Respct.Runtime.spawn ~name:"w" rt ~slot:0 (fun _ctx ->
         let base = Respct.Runtime.alloc_incll_array rt ~slot:0 8 ~init:0 in
         cells := Some base;
         let rng = Rng.create 23 in
         while not !done_ do
           let cell =
             Respct.Heap.cell_at_words ~line_words base (Rng.int rng 8)
           in
           Respct.Runtime.update rt ~slot:0 cell
             (Respct.Runtime.read rt ~slot:0 cell + 1);
           Respct.Runtime.rp rt ~slot:0 1
         done));
  (match Simsched.Scheduler.run sched with
  | Simsched.Scheduler.Completed | Simsched.Scheduler.Crash_interrupt _ -> ());
  Filemem.close fm

let verify_reopened path =
  match Filemem.open_existing ~path () with
  | Error e -> Alcotest.failf "reopen failed: %a" Filemem.pp_open_error e
  | Ok fm ->
      Fun.protect
        ~finally:(fun () -> Filemem.close fm)
        (fun () ->
          let meta = Filemem.meta fm in
          let cfg = Filemem.config fm in
          let layout =
            Respct.Layout.v ~integrity:meta.Filemem.integrity
              ~line_words:cfg.Filemem.line_words
              ~nvm_words:cfg.Filemem.nvm_words
              ~max_threads:meta.Filemem.max_threads
              ~registry_per_slot:meta.Filemem.registry_per_slot ()
          in
          let v =
            Respct.Recovery.run_verified_backend ~layout (Filemem.backend fm)
          in
          (Filemem.was_truncated fm, v))

let truncation_grades () =
  let path = tmp_path () in
  build_checkpointed_image path;
  (* sanity: the intact image verifies exactly *)
  let truncated, v = verify_reopened path in
  Alcotest.(check bool) "intact image not truncated" false truncated;
  Alcotest.(check bool)
    "intact image verifies exactly" true
    (Respct.Recovery.exact_image v.Respct.Recovery.verdict);
  (* now cut the file at several points; each must reopen and grade *)
  let full = (Unix.stat path).Unix.st_size in
  List.iter
    (fun frac ->
      let cut = max ((16 + 2 + line_words) * 8) (full * frac / 4) in
      Unix.truncate path cut;
      let truncated, v = verify_reopened path in
      Alcotest.(check bool)
        (Printf.sprintf "cut to %d/4 flagged as truncated" frac)
        true truncated;
      (* any graded verdict is acceptable; escaping exceptions are not *)
      ignore v.Respct.Recovery.verdict)
    [ 3; 2; 1; 0 ];
  Sys.remove path

let () =
  Alcotest.run "filemem"
    [
      ("parity", [ parity_test ]);
      ( "header",
        [
          Alcotest.test_case "round-trip" `Quick header_roundtrip;
          Alcotest.test_case "rejection" `Quick header_rejection;
        ] );
      ( "mutant",
        [ Alcotest.test_case "psync elision observable" `Quick
            mutant_elides_psync ] );
      ( "truncation",
        [ Alcotest.test_case "grades into taxonomy" `Quick truncation_grades ]
      );
    ]
