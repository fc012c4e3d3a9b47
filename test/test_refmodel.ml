(* Differential oracle for the optimized memory-system kernel.

   [Simnvm.Refmodel] is a naive, obviously-correct implementation of the
   PCSO spec that mirrors the kernel's decision procedure draw-for-draw.
   These properties run seeded load/store/pwb/psync/crash/fault sequences
   through both and demand full agreement: every value read, every raised
   media error, cached dirtiness, the persisted image before and after a
   final crash, the poisoned-line set, the exact (float-equal) total
   latency charge, and the entire event stream.

   Fault cases plant, after every crash of the op stream, one to three
   media faults on both models through the hooks the crash explorer's
   fault plans use: a bit flip written with [poke_persisted], a
   [poison_line] or an [arm_transient_fault]. The damage is drawn from a
   stream of its own, so a fault case runs the fault-free op stream.

   Armed cases run the same sequences under a live [Memsys.snapshot]: the
   undo journal must be invisible to every check above, and must record
   every write into the persistent image — write-back whole or partial,
   poke, scrub — so that the snapshot still reads the pre-sequence image
   and [Memsys.restore] reinstalls it exactly.

   Suspended cases interleave, at seeded points, what the crash explorer
   does to a running world's memory: [Memsys.suspend], an interlude of
   [restore], pokes, planted faults, loads and stores under a private
   charge hook, then [Memsys.resume]. One interlude in four is long: it
   fills more lines than the cache and the prefetch ring hold, restores
   again and runs a second stretch, so the spare the interludes run on
   is reset both from its fill ring and by the full sweep. The reference
   model runs nothing meanwhile, so every check above proves the
   interlude invisible: resume puts back the cache, the replacement and
   eviction state, DRAM, the faults and the hooks bit for bit. The
   interlude's events go to the suspended memory's private bus; the
   stats counters count them too.

   After every op, after every interlude's [restore] and after every
   [resume], the kernel's dirty NVMM lines, which it finds by walking its
   index of dirty slots, must equal the reference model's full scan:
   the same lines, masks and words, in slot order (a restore leaves
   none).

   As in test/common/gen_common.ml, a case generates only its seed and the
   failure printer emits a replay recipe, so a red run identifies the
   exact sequence. *)

module Memsys = Simnvm.Memsys
module Refmodel = Simnvm.Refmodel
module Rng = Simnvm.Rng
module Event = Simnvm.Event
module Stats = Simnvm.Stats

let line_words = 8

(* The address space a case runs over, in lines. Every case runs on the
   same 4 x 2 cache. Over [small]'s 40 lines that is constant eviction
   pressure, but the prefetch ring names at most 40 distinct lines, and
   in the count table their keys never share a probe run: over the pcso,
   armed and suspended cases no probe takes a second step and no
   deletion shifts a key. Over [wide]'s 2 056 lines nearly every access
   misses, the ring wraps holding close to 256 distinct lines, and about
   one deletion in seven shifts keys back. *)
type geometry = { nvm_lines : int; dram_lines : int }

let small = { nvm_lines = 32; dram_lines = 8 }
let wide = { nvm_lines = 2048; dram_lines = 8 }

let config ~geometry ~pcso seed =
  {
    Memsys.default_config with
    Memsys.nvm_words = geometry.nvm_lines * line_words;
    dram_words = geometry.dram_lines * line_words;
    line_words;
    sets = 4;
    ways = 2;
    evict_rate = 0.05;
    seed;
    pcso;
  }

type media = { m_addr : int; m_line : int; m_transient : bool }

let run_mem f =
  try Ok (f ())
  with Memsys.Media_error { addr; line; transient } ->
    Error { m_addr = addr; m_line = line; m_transient = transient }

let pp_result ppf = function
  | Ok v -> Fmt.pf ppf "ok:%d" v
  | Error m ->
      Fmt.pf ppf "media-error{addr=%d;line=%d;transient=%b}" m.m_addr m.m_line
        m.m_transient

(* One differential run. Raises via QCheck.Test.fail_reportf on
   divergence; returns a digest of the executed op stream (kinds,
   operands, tid rerolls, and in a fault case the planted faults), which
   pins the seeded draw derivation: the
   replay recipes the printers emit are only as durable as the draw
   order below, so a reordered or added draw must fail the pinned-trace
   test loudly instead of silently invalidating every recorded seed. *)
let run_case ?(geometry = small) ?(armed = false) ?(suspended = false) ~pcso
    ~faults ~n_ops seed =
  let nvm_lines = geometry.nvm_lines in
  let nvm_words = nvm_lines * line_words in
  let n_addr = nvm_words + (geometry.dram_lines * line_words) in
  let cfg = config ~geometry ~pcso seed in
  let mem = Memsys.create cfg in
  let rm = Refmodel.create cfg in
  let fail fmt =
    QCheck.Test.fail_reportf
      ("seed=%d nvm_lines=%d pcso=%b faults=%b armed=%b suspended=%b \
        n_ops=%d: " ^^ fmt)
      seed nvm_lines pcso faults armed suspended n_ops
  in
  let cur_tid = ref 0 in
  Memsys.set_tid_provider mem (fun () -> !cur_tid);
  Refmodel.set_tid_provider rm (fun () -> !cur_tid);
  let mem_events = ref [] in
  ignore
    (Event.subscribe (Memsys.bus mem) (fun ev -> mem_events := ev :: !mem_events));
  let mem_charge = ref 0.0 in
  Memsys.set_charge mem (fun ns -> mem_charge := !mem_charge +. ns);
  (* Armed: persist a nonzero word everywhere in both models first — a
     scrub over zeros would change nothing, and its journaling could not
     be observed — then snapshot that image. The prefill draws nothing
     from the op-stream [rng], so an armed case runs the unarmed stream. *)
  let armed_at =
    if not armed then None
    else begin
      for addr = 0 to nvm_words - 1 do
        Memsys.store mem addr (addr + 1);
        Refmodel.store rm addr (addr + 1);
        if (addr + 1) mod line_words = 0 then begin
          Memsys.pwb mem addr;
          Refmodel.pwb rm addr
        end
      done;
      Some (Memsys.snapshot mem, Memsys.image mem)
    end
  in
  let rng = Rng.create (seed + 0x51ed5eed) in
  let digest = ref 0 in
  let mix v = digest := ((!digest * 31) + v) land 0x3FFFFFFF in
  (* The media damage planted after a crash, from a stream of its own. *)
  let frng = Rng.create (seed lxor 0x5bf03ab5) in
  let plant_faults () =
    for _ = 0 to Rng.int frng 3 do
      match Rng.int frng 3 with
      | 0 ->
          let addr = Rng.int frng nvm_words in
          let bit = Rng.int frng 62 in
          mix 9;
          mix addr;
          mix bit;
          Memsys.poke_persisted mem addr
            (Memsys.persisted mem addr lxor (1 lsl bit));
          Refmodel.poke_persisted rm addr
            (Refmodel.persisted rm addr lxor (1 lsl bit))
      | 1 ->
          let lineno = Rng.int frng nvm_lines in
          mix 10;
          mix lineno;
          Memsys.poison_line mem lineno;
          Refmodel.poison_line rm lineno
      | _ ->
          let lineno = Rng.int frng nvm_lines in
          mix 11;
          mix lineno;
          Memsys.arm_transient_fault mem lineno;
          Refmodel.arm_transient_fault rm lineno
    done
  in
  let step op_ix =
    if Rng.int rng 7 = 0 then cur_tid := Rng.int rng 4 - 1;
    mix !cur_tid;
    match Rng.int rng 100 with
    | k when k < 38 ->
        let addr = Rng.int rng n_addr and v = Rng.int rng 1_000_000 in
        mix 1;
        mix addr;
        mix v;
        let a = run_mem (fun () -> Memsys.store mem addr v) in
        let b = run_mem (fun () -> Refmodel.store rm addr v) in
        if
          (match (a, b) with
          | Ok (), Ok () -> false
          | Error x, Error y -> x <> y
          | _ -> true)
        then
          fail "op %d: store %d diverged (%a vs %a)" op_ix addr pp_result
            (Result.map (fun () -> 0) a)
            pp_result
            (Result.map (fun () -> 0) b);
        if Memsys.is_cached_dirty mem addr <> Refmodel.is_cached_dirty rm addr
        then fail "op %d: dirtiness of %d diverged after store" op_ix addr
    | k when k < 76 ->
        let addr = Rng.int rng n_addr in
        mix 2;
        mix addr;
        let a = run_mem (fun () -> Memsys.load mem addr) in
        let b = run_mem (fun () -> Refmodel.load rm addr) in
        if a <> b then
          fail "op %d: load %d diverged (%a vs %a)" op_ix addr pp_result a
            pp_result b
    | k when k < 86 ->
        let addr = Rng.int rng n_addr in
        mix 3;
        mix addr;
        Memsys.pwb mem addr;
        Refmodel.pwb rm addr
    | k when k < 91 ->
        mix 4;
        Memsys.psync mem;
        Refmodel.psync rm
    | k when k < 94 ->
        mix 5;
        Memsys.crash mem;
        Refmodel.crash rm;
        if faults then plant_faults ()
    | k when k < 96 ->
        let lineno = Rng.int rng nvm_lines in
        mix 6;
        mix lineno;
        Memsys.poison_line mem lineno;
        Refmodel.poison_line rm lineno
    | k when k < 98 ->
        let lineno = Rng.int rng nvm_lines in
        mix 7;
        mix lineno;
        Memsys.arm_transient_fault mem lineno;
        Refmodel.arm_transient_fault rm lineno
    | _ ->
        let lineno = Rng.int rng nvm_lines in
        mix 8;
        mix lineno;
        Memsys.scrub_line mem lineno;
        Refmodel.scrub_line rm lineno
  in
  (* The interludes draw from a stream of their own, so a suspended case
     runs the unsuspended op stream. *)
  let srng = Rng.create (seed + 0x5e5e5e) in
  let interlude_events = ref [] in
  let misses () =
    let s = Memsys.stats mem in
    s.Stats.nvm_misses + s.Stats.dram_misses
  in
  (* One recovery's worth of work on the suspended memory: pokes,
     sometimes a planted fault, then loads and stores. A long stretch
     misses more than 300 times, more fills than the cache has lines (8)
     and the prefetch ring has entries (256), so the reset after it
     cannot rely on the ring to name the valid lines. *)
  let stretch ~long =
    for _ = 0 to Rng.int srng 4 do
      Memsys.poke_persisted mem (Rng.int srng nvm_words) (Rng.int srng 1_000)
    done;
    if Rng.int srng 4 = 0 then
      (if Rng.bool srng then Memsys.poison_line else Memsys.arm_transient_fault)
        mem (Rng.int srng nvm_lines);
    let access () =
      let addr = Rng.int srng n_addr in
      ignore
        (run_mem (fun () ->
             if Rng.bool srng then Memsys.load mem addr
             else (Memsys.store mem addr (Rng.int srng 1_000); 0)))
    in
    if long then begin
      let m0 = misses () in
      while misses () - m0 <= 300 do
        access ()
      done
    end
    else
      for _ = 1 to Rng.int srng 24 do
        access ()
      done
  in
  (* After a [restore] the memory holds nothing volatile: no line is
     cached dirty, every NVMM word reads as persisted and every DRAM word
     as zero (a stale valid line would show through [peek]), and no line
     is poisoned. *)
  let restore_clean snap what =
    Memsys.restore mem snap;
    for addr = 0 to n_addr - 1 do
      let want = if addr < nvm_words then Memsys.persisted mem addr else 0 in
      if Memsys.is_cached_dirty mem addr || Memsys.peek mem addr <> want then
        fail "%s restore left word %d cached (%d, want %d)" what addr
          (Memsys.peek mem addr) want
    done;
    if Memsys.poisoned_lines mem <> [] then
      fail "%s restore left lines poisoned" what;
    if Memsys.dirty_nvm_lines mem <> [] then
      fail "%s restore left dirty lines listed" what
  in
  (* Now and then a long stretch, a [restore] and a second stretch
     before the resume, as at a boundary with two recoveries. *)
  let interlude () =
    let snap = Memsys.suspend mem in
    let bus = Memsys.bus mem in
    let sub =
      Event.subscribe bus (fun ev -> interlude_events := ev :: !interlude_events)
    in
    Memsys.set_charge mem ignore;
    restore_clean snap "first";
    let long = Rng.int srng 4 = 0 in
    stretch ~long;
    if long then begin
      restore_clean snap "mid-interlude";
      stretch ~long:false
    end;
    Event.unsubscribe bus sub;
    Memsys.resume mem snap
  in
  let check_dirty what op_ix =
    let got = Memsys.dirty_nvm_lines mem and want = Refmodel.dirty_nvm_lines rm in
    if got <> want then
      fail "%s %d: dirty lines diverged (%d listed, the scan finds %d)" what
        op_ix (List.length got) (List.length want)
  in
  for op_ix = 1 to n_ops do
    if suspended && Rng.int srng 8 = 0 then begin
      interlude ();
      check_dirty "resume before op" op_ix
    end;
    step op_ix;
    check_dirty "op" op_ix
  done;
  (* Persisted image agreement before the final crash... *)
  if Memsys.image mem <> Refmodel.image rm then
    fail "pre-crash persisted images diverged";
  (* ...and the crash image afterwards (under the ablation, this is where
     weakened orderings land). *)
  Memsys.crash mem;
  Refmodel.crash rm;
  if Memsys.image mem <> Refmodel.image rm then fail "crash images diverged";
  if Memsys.poisoned_lines mem <> Refmodel.poisoned_lines rm then
    fail "poisoned-line sets diverged";
  if !mem_charge <> Refmodel.total_charge rm then
    fail "total charges diverged (%.17g vs %.17g)" !mem_charge
      (Refmodel.total_charge rm);
  let evs_mem = List.rev !mem_events and evs_rm = Refmodel.events rm in
  if List.length evs_mem <> List.length evs_rm then
    fail "event counts diverged (%d vs %d)" (List.length evs_mem)
      (List.length evs_rm);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        fail "event %d diverged: %a vs %a" i Event.pp a Event.pp b)
    (List.combine evs_mem evs_rm);
  (* The kernel bumps its stats counters inline instead of via the
     bus; they must still match the event stream exactly. *)
  let s = Memsys.stats mem in
  let count p = List.length (List.filter p (evs_mem @ !interlude_events)) in
  let checks =
    [
      ("loads", s.Stats.loads, count (function Event.Load _ -> true | _ -> false));
      ("stores", s.Stats.stores, count (function Event.Store _ -> true | _ -> false));
      ("hits", s.Stats.hits, count (function Event.Hit _ -> true | _ -> false));
      ( "dram_misses",
        s.Stats.dram_misses,
        count (function Event.Miss { backing = Event.Dram; _ } -> true | _ -> false) );
      ( "nvm_misses",
        s.Stats.nvm_misses,
        count (function Event.Miss { backing = Event.Nvm; _ } -> true | _ -> false) );
      ( "dram_writebacks",
        s.Stats.dram_writebacks,
        count (function
          | Event.Writeback { backing = Event.Dram; _ } -> true
          | _ -> false) );
      ( "nvm_writebacks",
        s.Stats.nvm_writebacks,
        count (function
          | Event.Writeback { backing = Event.Nvm; _ } -> true
          | _ -> false) );
      ("pwbs", s.Stats.pwbs, count (function Event.Pwb _ -> true | _ -> false));
      ("psyncs", s.Stats.psyncs, count (function Event.Psync _ -> true | _ -> false));
      ( "spontaneous",
        s.Stats.spontaneous_evictions,
        count (function Event.Eviction _ -> true | _ -> false) );
      ("crashes", s.Stats.crashes, count (function Event.Crash _ -> true | _ -> false));
      ( "media_errors",
        s.Stats.media_errors,
        count (function Event.Media_error _ -> true | _ -> false) );
      ( "media_scrubs",
        s.Stats.media_scrubs,
        count (function Event.Media_scrub _ -> true | _ -> false) );
    ]
  in
  List.iter
    (fun (name, got, want) ->
      if got <> want then
        fail "stats.%s = %d but the event stream says %d" name got want)
    checks;
  Option.iter
    (fun (snap, before) ->
      for addr = 0 to nvm_words - 1 do
        let got = Memsys.snapshot_persisted snap addr in
        if got <> before.(addr) then
          fail "snapshot reads %d at %d, the pre-sequence image held %d" got
            addr before.(addr)
      done;
      Memsys.restore mem snap;
      if Memsys.image mem <> before then
        fail "restore did not reinstall the pre-sequence image";
      if Memsys.poisoned_lines mem <> [] then fail "restore left lines poisoned")
    armed_at;
  !digest

let arb_seed ~geometry ~armed ~suspended ~pcso ~faults ~n_ops =
  QCheck.make
    ~print:(fun seed ->
      Printf.sprintf
        "refmodel differential: seed=%d nvm_lines=%d pcso=%b faults=%b \
         armed=%b suspended=%b n_ops=%d"
        seed geometry.nvm_lines pcso faults armed suspended n_ops)
    QCheck.Gen.(1 -- 100_000)

let prop ?(geometry = small) ?(armed = false) ?(suspended = false) ~name
    ~count ~pcso ~faults ~n_ops () =
  Gen_common.to_alcotest ~suite:"refmodel"
    (QCheck.Test.make ~name ~count
       (arb_seed ~geometry ~armed ~suspended ~pcso ~faults ~n_ops)
       (fun seed ->
         ignore
           (run_case ~geometry ~armed ~suspended ~pcso ~faults ~n_ops seed
             : int);
         true))

(* The seeded derivation itself, pinned: one fixed (seed, n_ops) case
   whose executed op stream must digest to a known constant, and the
   same case with faults, whose digest adds the planted damage. See the
   comment on [run_case] — this is what keeps old replay recipes (and
   the per-suite streams of Gen_common.to_alcotest) stable. *)
let pinned_trace () =
  Alcotest.(check int)
    "op-stream digest of seed=42 n_ops=140" 871623150
    (run_case ~pcso:true ~faults:false ~n_ops:140 42);
  Alcotest.(check int)
    "the same with its planted faults" 531517531
    (run_case ~pcso:true ~faults:true ~n_ops:140 42)

(* >= 1000 seeded sequences across the four variants, each ~140 ops:
   the CI smoke budget of the ISSUE. *)
let () =
  Alcotest.run "refmodel"
    [
      ( "differential",
        [
          prop ~name:"pcso" ~count:400 ~pcso:true ~faults:false ~n_ops:140 ();
          prop ~name:"ablation (pcso=false)" ~count:250 ~pcso:false
            ~faults:false ~n_ops:140 ();
          prop ~name:"faults" ~count:250 ~pcso:true ~faults:true ~n_ops:140 ();
          prop ~name:"ablation+faults" ~count:100 ~pcso:false ~faults:true
            ~n_ops:140 ();
          prop ~geometry:wide ~name:"fill table under collisions" ~count:20
            ~pcso:true ~faults:false ~n_ops:2000 ();
        ] );
      ( "journal",
        [
          prop ~armed:true ~name:"armed pcso" ~count:150 ~pcso:true
            ~faults:false ~n_ops:140 ();
          prop ~armed:true ~name:"armed ablation (pcso=false)" ~count:150
            ~pcso:false ~faults:false ~n_ops:140 ();
          prop ~armed:true ~name:"armed faults" ~count:150 ~pcso:true
            ~faults:true ~n_ops:140 ();
          prop ~armed:true ~name:"armed ablation+faults" ~count:150
            ~pcso:false ~faults:true ~n_ops:140 ();
        ] );
      ( "suspend",
        [
          prop ~suspended:true ~name:"suspended pcso" ~count:150 ~pcso:true
            ~faults:false ~n_ops:140 ();
          prop ~suspended:true ~name:"suspended ablation (pcso=false)"
            ~count:150 ~pcso:false ~faults:false ~n_ops:140 ();
          prop ~suspended:true ~name:"suspended faults" ~count:150 ~pcso:true
            ~faults:true ~n_ops:140 ();
        ] );
      ( "seed-stability",
        [ Alcotest.test_case "pinned trace (seed=42)" `Quick pinned_trace ] );
    ]
