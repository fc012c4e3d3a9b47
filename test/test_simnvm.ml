(* Tests for the simulated memory hierarchy: cache coherence, persistency
   semantics (PCSO), crash behaviour, eviction, cost accounting. *)

open Simnvm

let cfg ?(evict_rate = 0.0) ?(eadr = false) ?(pcso = true) ?(sets = 64)
    ?(ways = 4) () =
  { Memsys.default_config with Memsys.evict_rate = evict_rate; eadr; pcso; sets; ways }

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let f = Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let r = Rng.create 3 in
  let r' = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.bits r) in
  let ys = List.init 20 (fun _ -> Rng.bits r') in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Addr *)

let lw = 8

let test_addr_arith () =
  Alcotest.(check int) "line_of" 2 (Addr.line_of ~line_words:lw 17);
  Alcotest.(check int) "line_base" 16 (Addr.line_base ~line_words:lw 17);
  Alcotest.(check int) "offset" 1 (Addr.offset_in_line ~line_words:lw 17);
  Alcotest.(check bool) "same line" true (Addr.same_line ~line_words:lw 16 23);
  Alcotest.(check bool) "diff line" false (Addr.same_line ~line_words:lw 15 16)

let test_addr_align_for () =
  (* 3 words starting at offset 6 of an 8-word line must skip to next line. *)
  Alcotest.(check int) "skip" 16 (Addr.align_for ~line_words:lw ~words:3 14);
  Alcotest.(check int) "fits" 13 (Addr.align_for ~line_words:lw ~words:3 13);
  Alcotest.(check int) "exact end" 5 (Addr.align_for ~line_words:lw ~words:3 5);
  Alcotest.check_raises "too large"
    (Invalid_argument "Addr.align_for: allocation larger than a cache line")
    (fun () -> ignore (Addr.align_for ~line_words:lw ~words:9 0))

(* ------------------------------------------------------------------ *)
(* Memsys basics *)

let test_store_load_roundtrip () =
  let m = Memsys.create (cfg ()) in
  Memsys.store m 100 42;
  Alcotest.(check int) "read back" 42 (Memsys.load m 100);
  Memsys.store m 100 43;
  Alcotest.(check int) "overwrite" 43 (Memsys.load m 100)

let test_unflushed_store_lost_on_crash () =
  let m = Memsys.create (cfg ()) in
  Memsys.store m 100 42;
  Alcotest.(check int) "not yet persistent" 0 (Memsys.persisted m 100);
  Memsys.crash m;
  Alcotest.(check int) "lost" 0 (Memsys.persisted m 100);
  Alcotest.(check int) "load sees NVMM image" 0 (Memsys.load m 100)

let test_pwb_persists () =
  let m = Memsys.create (cfg ()) in
  Memsys.store m 100 42;
  Memsys.pwb m 100;
  Memsys.psync m;
  Memsys.crash m;
  Alcotest.(check int) "survived" 42 (Memsys.load m 100)

let test_flush_all () =
  let m = Memsys.create (cfg ()) in
  for i = 0 to 99 do
    Memsys.store m i i
  done;
  Memsys.flush_all m;
  Memsys.crash m;
  for i = 0 to 99 do
    Alcotest.(check int) "persisted" i (Memsys.load m i)
  done

let test_dram_lost_on_crash () =
  let m = Memsys.create (cfg ()) in
  let dram_addr = (Memsys.config m).Memsys.nvm_words + 5 in
  Memsys.store m dram_addr 7;
  Memsys.pwb m dram_addr;
  (* even an explicit write-back does not make DRAM survive *)
  Memsys.crash m;
  Alcotest.(check int) "dram zeroed" 0 (Memsys.load m dram_addr)

let test_persisted_rejects_dram () =
  let m = Memsys.create (cfg ()) in
  let dram_addr = (Memsys.config m).Memsys.nvm_words in
  Alcotest.check_raises "reject"
    (Invalid_argument "Memsys.persisted: address not in NVMM") (fun () ->
      ignore (Memsys.persisted m dram_addr))

let test_force_evict_and_drop () =
  let m = Memsys.create (cfg ()) in
  Memsys.store m 8 1;
  Memsys.force_evict m 8;
  Alcotest.(check int) "evicted line persisted" 1 (Memsys.persisted m 8);
  Memsys.store m 16 2;
  Memsys.drop_line m 16;
  Alcotest.(check int) "dropped line lost" 0 (Memsys.persisted m 16);
  Alcotest.(check int) "reload from NVMM" 0 (Memsys.load m 16)

let test_capacity_eviction_persists () =
  (* Touch far more lines than the cache holds: dirty victims are written
     back, so their values must be visible in the NVMM image. *)
  let m = Memsys.create (cfg ~sets:4 ~ways:2 ()) in
  let n = 512 in
  for i = 0 to n - 1 do
    Memsys.store m (i * lw) i
  done;
  let s = Memsys.stats m in
  Alcotest.(check bool) "writebacks happened" true (s.Stats.nvm_writebacks > 0);
  let persisted = ref 0 in
  for i = 0 to n - 1 do
    if Memsys.persisted m (i * lw) = i then incr persisted
  done;
  Alcotest.(check bool) "most lines persisted" true (!persisted >= n - (4 * 2))

let test_coherence_after_eviction () =
  (* Values remain coherent through the cache regardless of evictions. *)
  let m = Memsys.create (cfg ~sets:2 ~ways:1 ~evict_rate:0.5 ()) in
  let r = Rng.create 11 in
  let model = Hashtbl.create 64 in
  for _ = 1 to 5000 do
    let a = Rng.int r 256 in
    if Rng.bool r then begin
      let v = Rng.bits r in
      Memsys.store m a v;
      Hashtbl.replace model a v
    end
    else
      let expected = Option.value ~default:0 (Hashtbl.find_opt model a) in
      Alcotest.(check int) "coherent" expected (Memsys.load m a)
  done

(* ------------------------------------------------------------------ *)
(* PCSO: same-line ordering, the InCLL foundation *)

(* Write backup at [base], then record at [base+1] (same line). Under PCSO,
   whenever the record value is persistent the backup must be too. *)
let pcso_trial ~pcso seed =
  let m = Memsys.create (cfg ~pcso ~evict_rate:0.3 ~sets:2 ~ways:1 ()) in
  let m =
    ignore seed;
    m
  in
  let r = Rng.create seed in
  let base = 64 in
  let violation = ref false in
  for round = 1 to 200 do
    Memsys.store m base round (* backup *);
    Memsys.store m (base + 1) round (* record *);
    (* stir the cache to provoke evictions *)
    for _ = 1 to 4 do
      Memsys.store m (Rng.int r 128 * lw) round
    done;
    if Memsys.persisted m (base + 1) = round && Memsys.persisted m base <> round
    then violation := true
  done;
  !violation

let test_pcso_same_line_ordering () =
  for seed = 1 to 20 do
    Alcotest.(check bool) "no violation under PCSO" false
      (pcso_trial ~pcso:true seed)
  done

let test_non_pcso_ablation_violates () =
  (* The word-granular ablation must be able to violate same-line ordering:
     at least one of many seeds shows a violation. *)
  let any = ref false in
  for seed = 1 to 50 do
    if pcso_trial ~pcso:false seed then any := true
  done;
  Alcotest.(check bool) "ablation violates ordering" true !any

(* ------------------------------------------------------------------ *)
(* eADR *)

let test_eadr_crash_drains_cache () =
  let m = Memsys.create (cfg ~eadr:true ()) in
  Memsys.store m 100 42;
  Memsys.crash m;
  Alcotest.(check int) "drained by battery" 42 (Memsys.load m 100)

let test_eadr_does_not_drain_dram () =
  let m = Memsys.create (cfg ~eadr:true ()) in
  let dram_addr = (Memsys.config m).Memsys.nvm_words + 3 in
  Memsys.store m dram_addr 9;
  Memsys.crash m;
  Alcotest.(check int) "dram still volatile" 0 (Memsys.load m dram_addr)

(* ------------------------------------------------------------------ *)
(* Cost accounting *)

let with_cost m f =
  let acc = ref 0.0 in
  Memsys.set_charge m (fun c -> acc := !acc +. c);
  f ();
  Memsys.set_charge m (fun _ -> ());
  !acc

let test_costs_hit_vs_miss () =
  let m = Memsys.create (cfg ()) in
  let miss = with_cost m (fun () -> ignore (Memsys.load m 100)) in
  let hit = with_cost m (fun () -> ignore (Memsys.load m 100)) in
  Alcotest.(check bool) "miss dearer than hit" true (miss > hit);
  Alcotest.(check bool) "hit positive" true (hit > 0.0)

let test_costs_nvm_vs_dram_miss () =
  let m = Memsys.create (cfg ()) in
  let nvm = with_cost m (fun () -> ignore (Memsys.load m 0)) in
  let dram_addr = (Memsys.config m).Memsys.nvm_words in
  let dram = with_cost m (fun () -> ignore (Memsys.load m dram_addr)) in
  Alcotest.(check bool) "NVM miss dearer than DRAM miss" true (nvm > dram)

let test_costs_pwb_psync () =
  let m = Memsys.create (cfg ()) in
  Memsys.store m 100 1;
  let flush =
    with_cost m (fun () ->
        Memsys.pwb m 100;
        Memsys.psync m)
  in
  let lat = (Memsys.config m).Memsys.latency in
  Alcotest.check (Alcotest.float 0.001)
    "clwb + sfence"
    (lat.Latency.clwb_ns +. lat.Latency.sfence_ns)
    flush

let test_eadr_flush_free () =
  let lat = Latency.eadr_of Latency.default in
  let m = Memsys.create { (cfg ()) with Memsys.latency = lat; eadr = true } in
  Memsys.store m 100 1;
  let flush =
    with_cost m (fun () ->
        Memsys.pwb m 100;
        Memsys.psync m)
  in
  Alcotest.check (Alcotest.float 0.001) "free under eADR" 0.0 flush

let test_stats_counters () =
  let m = Memsys.create (cfg ()) in
  ignore (Memsys.load m 0);
  Memsys.store m 0 1;
  Memsys.pwb m 0;
  Memsys.psync m;
  let s = Memsys.stats m in
  Alcotest.(check int) "loads" 1 s.Stats.loads;
  Alcotest.(check int) "stores" 1 s.Stats.stores;
  Alcotest.(check int) "pwbs" 1 s.Stats.pwbs;
  Alcotest.(check int) "psyncs" 1 s.Stats.psyncs;
  Alcotest.(check int) "hits" 1 s.Stats.hits;
  Stats.reset s;
  Alcotest.(check int) "reset" 0 (Stats.accesses s)

let test_create_validation () =
  Alcotest.check_raises "unaligned nvm"
    (Invalid_argument "Memsys.create: nvm_words must be line-aligned")
    (fun () -> ignore (Memsys.create { (cfg ()) with Memsys.nvm_words = 100 }))

(* The range test is inlined into every access and its message raised
   out of line: the message stays the one callers match on, at both ends
   of the address space. *)
let test_address_out_of_range () =
  let c = cfg () in
  let m = Memsys.create c in
  List.iter
    (fun addr ->
      let want =
        Invalid_argument (Printf.sprintf "Memsys: address %d out of range" addr)
      in
      Alcotest.check_raises "load" want (fun () -> ignore (Memsys.load m addr));
      Alcotest.check_raises "store" want (fun () -> Memsys.store m addr 1);
      Alcotest.check_raises "pwb" want (fun () -> Memsys.pwb m addr))
    [ -1; c.Memsys.nvm_words + c.Memsys.dram_words ];
  Memsys.store m (c.Memsys.nvm_words + c.Memsys.dram_words - 1) 5;
  Alcotest.(check int) "last address in range" 5
    (Memsys.load m (c.Memsys.nvm_words + c.Memsys.dram_words - 1))

(* ------------------------------------------------------------------ *)
(* Event pipeline *)

let kind_of (ev : Event.t) =
  match ev with
  | Event.Load _ -> "load"
  | Event.Store _ -> "store"
  | Event.Hit _ -> "hit"
  | Event.Miss _ -> "miss"
  | Event.Writeback _ -> "writeback"
  | Event.Pwb _ -> "pwb"
  | Event.Psync _ -> "psync"
  | Event.Eviction _ -> "eviction"
  | Event.Crash _ -> "crash"
  | Event.Media_error _ -> "media-error"
  | Event.Media_scrub _ -> "media-scrub"
  | Event.Rmw _ -> "rmw"
  | Event.Compute _ -> "compute"
  | Event.Acquire _ -> "acquire"
  | Event.Release _ -> "release"
  | Event.Restart_point _ -> "rp"

let subscribe m f = Event.subscribe (Memsys.bus m) f
let unsubscribe m sub = Event.unsubscribe (Memsys.bus m) sub
let subscribers m = Event.subscriber_count (Memsys.bus m)

let test_pipeline_delivery () =
  let m = Memsys.create (cfg ()) in
  let seen = ref [] in
  let _sub = subscribe m (fun ev -> seen := kind_of ev :: !seen) in
  Memsys.store m 0 1;
  ignore (Memsys.load m 0);
  Memsys.pwb m 0;
  Memsys.psync m;
  (* Access events precede their hit/miss resolution; the pwb of a dirty
     line carries its write-back; everything arrives in program order. *)
  Alcotest.(check (list string))
    "event sequence"
    [ "store"; "miss"; "load"; "hit"; "pwb"; "writeback"; "psync" ]
    (List.rev !seen);
  (* The inline Stats counters saw the same events. *)
  let s = Memsys.stats m in
  Alcotest.(check int) "stats loads" 1 s.Stats.loads;
  Alcotest.(check int) "stats stores" 1 s.Stats.stores;
  Alcotest.(check int) "stats pwbs" 1 s.Stats.pwbs

let test_pipeline_unsubscribe () =
  let m = Memsys.create (cfg ()) in
  Alcotest.(check int) "default count" 0 (subscribers m);
  let n = ref 0 in
  let sub = subscribe m (fun _ -> incr n) in
  Alcotest.(check int) "after subscribe" 1 (subscribers m);
  Memsys.store m 0 1;
  let seen_before = !n in
  Alcotest.(check bool) "saw events" true (seen_before > 0);
  unsubscribe m sub;
  Alcotest.(check int) "after unsubscribe" 0 (subscribers m);
  Memsys.store m 8 2;
  Alcotest.(check int) "no further delivery" seen_before !n;
  (* unsubscribing twice is a harmless no-op *)
  unsubscribe m sub;
  Alcotest.(check int) "double detach no-op" 0 (subscribers m)

(* Crash-explorer usage pattern: transient counting subscribers attach and
   detach around every run of a world (Fun.protect on exceptional exits,
   the way Crashtest.Crashpoint does), including subscribers that abort
   the run by raising mid-event. Churning them must never strand an entry in
   the pipeline or starve the remaining subscribers. *)
let test_pipeline_churn () =
  let m = Memsys.create (cfg ()) in
  let base = subscribers m in
  let delivered = ref 0 in
  let _keeper = subscribe m (fun _ -> incr delivered) in
  for round = 1 to 50 do
    let n = ref 0 in
    let sub = subscribe m (fun _ -> incr n) in
    (try
       Fun.protect
         ~finally:(fun () -> unsubscribe m sub)
         (fun () ->
           Memsys.store m (8 * (round mod 16)) round;
           if round mod 7 = 0 then failwith "simulated crash boundary";
           ignore (Memsys.load m (8 * (round mod 16))))
     with Failure _ -> ());
    Alcotest.(check int)
      (Printf.sprintf "round %d detached" round)
      (base + 1) (subscribers m);
    Alcotest.(check bool)
      (Printf.sprintf "round %d saw its events" round)
      true (!n > 0)
  done;
  Alcotest.(check bool) "long-lived subscriber kept receiving" true
    (!delivered >= 50);
  let s = Memsys.stats m in
  Alcotest.(check int) "stats saw every store" 50 s.Stats.stores

(* Crash explorers churn a transient subscriber around every one of their
   thousands of world runs (replays and shrinks), so a subscribe /
   unsubscribe cycle must cost no allocation at steady state (the
   subscriber arrays are in place; detaching shifts in place). Guard it with a minor-heap budget: the old
   list-rebuilding unsubscribe spent dozens of words per cycle, a cycle on
   the flat arrays spends none. *)
let test_subscriber_churn_cost () =
  let m = Memsys.create (cfg ()) in
  let f (_ : Event.t) = () in
  (* Grow the subscriber capacity past anything the loop needs. *)
  let warm = Array.init 8 (fun _ -> subscribe m f) in
  Array.iter (fun id -> unsubscribe m id) warm;
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    let sub = subscribe m f in
    unsubscribe m sub
  done;
  let per_round = (Gc.minor_words () -. before) /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state churn allocates (%.3f words/cycle, want < 1)"
       per_round)
    true (per_round < 1.0)

(* ------------------------------------------------------------------ *)
(* Allocation: the access path allocates nothing once warm.
   [Gc.minor_words] is exact (it counts the current minor heap too), so
   [words_per_call] runs [f 1 .. f rounds] once to warm up (first touches
   materialise line buffers and backing chunks), then again under the
   counter. *)

let alloc_rounds = 10_000

let words_per_call f =
  for i = 1 to alloc_rounds do
    f i
  done;
  let before = Gc.minor_words () in
  for i = 1 to alloc_rounds do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int alloc_rounds

let check_no_alloc what f =
  let w = words_per_call f in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates %.3f words per call, want 0" what w)
    true (w = 0.0)

(* 4096 distinct NVMM lines cycle through a 256-line cache: every access
   misses, and once stores have dirtied the cache every fill first writes
   a dirty victim back. *)
let miss_addr i = i land 4095 * lw

let test_access_path_allocates_nothing () =
  let m = Memsys.create (cfg ()) in
  check_no_alloc "load hit" (fun _ -> ignore (Memsys.load m 0));
  check_no_alloc "store hit" (fun i -> Memsys.store m 0 i);
  check_no_alloc "load miss" (fun i -> ignore (Memsys.load m (miss_addr i)));
  check_no_alloc "store miss, dirty victim" (fun i ->
      Memsys.store m (miss_addr i) i);
  let s = Memsys.stats m in
  Alcotest.(check bool) "the fills wrote victims back" true
    (s.Stats.nvm_writebacks >= alloc_rounds);
  check_no_alloc "pwb of a dirty line" (fun i ->
      Memsys.store m 8 i;
      Memsys.pwb m 8);
  check_no_alloc "pwb of a clean line" (fun _ -> Memsys.pwb m 8);
  check_no_alloc "psync" (fun _ -> Memsys.psync m);
  let m = Memsys.create (cfg ~evict_rate:1.0 ()) in
  check_no_alloc "store, evict_rate 1.0" (fun i ->
      Memsys.store m (i land 63 * lw) i);
  (* Every store draws; a draw evicts when its random way is dirty. *)
  Alcotest.(check bool) "the draws evicted dirty lines" true
    ((Memsys.stats m).Stats.spontaneous_evictions > alloc_rounds / 10)

(* No warm-up here: from [create] on, a miss allocates nothing, minor or
   major. Each load fills a line never touched before, into a slot never
   filled before, and records it in the prefetcher's ring and count
   table: every array those touch exists from [create]. The minor heap
   is emptied first, so no collection promotes words into the major
   heap's count meanwhile. *)
let test_first_fills_allocate_nothing () =
  let m = Memsys.create (cfg ()) in
  Gc.minor ();
  let major_words () =
    let _, _, words = Gc.counters () in
    words
  in
  let major0 = major_words () and minor0 = Gc.minor_words () in
  for i = 0 to 4095 do
    ignore (Memsys.load m (miss_addr i))
  done;
  let minor = Gc.minor_words () -. minor0 and major = major_words () -. major0 in
  Alcotest.(check int) "every load missed" 4096
    (Memsys.stats m).Stats.nvm_misses;
  let words = Alcotest.float 0.0 in
  Alcotest.check (Alcotest.pair words words)
    "minor and major words of 4096 first fills" (0.0, 0.0) (minor, major)

let test_rng_allocates_nothing () =
  let r = Rng.create 11 in
  check_no_alloc "Rng.int" (fun _ -> ignore (Rng.int r 100));
  check_no_alloc "Rng.bits" (fun _ -> ignore (Rng.bits r));
  check_no_alloc "Rng.bits53" (fun _ -> ignore (Rng.bits53 r));
  check_no_alloc "Rng.bool" (fun _ -> ignore (Rng.bool r))

(* The integer eviction draw is the float one: [bits53] below
   [⌈r·2^53⌉] exactly when [float] below [r], on the same state. *)
let test_rng_bits53_is_float () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 1000 do
    let u = Rng.bits53 a in
    Alcotest.check (Alcotest.float 0.0) "float = bits53 / 2^53"
      (float_of_int u /. 9007199254740992.0)
      (Rng.float b)
  done

(* ------------------------------------------------------------------ *)
(* Faulty media: the fault-plan hooks, the only way media damage enters
   a memory, and the fill-time checks recovery relies on. *)

let test_poison_raises_and_scrub_heals () =
  let m = Memsys.create (cfg ()) in
  Memsys.store m 100 42;
  Memsys.pwb m 100;
  let seen = ref [] in
  let _sub = subscribe m (fun ev -> seen := kind_of ev :: !seen) in
  let line = 100 / lw in
  Memsys.poison_line m line;
  Alcotest.(check bool) "poisoned" true (Memsys.is_poisoned m line);
  Alcotest.(check (list int)) "listed" [ line ] (Memsys.poisoned_lines m);
  (try
     ignore (Memsys.load m 100);
     Alcotest.fail "expected Media_error"
   with Memsys.Media_error { line = l; transient; _ } ->
     Alcotest.(check int) "faulting line" line l;
     Alcotest.(check bool) "hard fault" false transient);
  (* Oracle views deliberately bypass poison. *)
  Alcotest.(check int) "persisted bypasses" 42 (Memsys.persisted m 100);
  Alcotest.(check int) "peek bypasses" 42 (Memsys.peek m 100);
  Memsys.scrub_line m line;
  Alcotest.(check bool) "healed" false (Memsys.is_poisoned m line);
  Alcotest.(check int) "content lost by scrub" 0 (Memsys.load m 100);
  Alcotest.(check bool)
    "scrub published" true
    (List.mem "media-scrub" !seen)

let test_transient_fault_one_shot () =
  let m = Memsys.create (cfg ()) in
  Memsys.poke_persisted m 200 7;
  Memsys.arm_transient_fault m (200 / lw);
  (try
     ignore (Memsys.load m 200);
     Alcotest.fail "expected transient Media_error"
   with Memsys.Media_error { transient; _ } ->
     Alcotest.(check bool) "transient" true transient);
  (* The fault disarmed with the first raise: the retry succeeds. *)
  Alcotest.(check int) "retry heals" 7 (Memsys.load m 200)

let test_restore_clears_planted_faults () =
  let m = Memsys.create (cfg ()) in
  Memsys.poke_persisted m 64 9;
  Memsys.poke_persisted m 80 5;
  let snap = Memsys.snapshot m in
  Memsys.poke_persisted m 64 10;
  Memsys.poison_line m (64 / lw);
  Memsys.arm_transient_fault m (72 / lw);
  Memsys.scrub_line m (80 / lw);
  Alcotest.(check int) "snapshot keeps the poked word" 9
    (Memsys.snapshot_persisted snap 64);
  Memsys.restore m snap;
  Alcotest.(check (list int)) "poison cleared" [] (Memsys.poisoned_lines m);
  Alcotest.(check int) "poke undone, loads cleanly" 9 (Memsys.load m 64);
  Alcotest.(check int) "transient cleared" 0 (Memsys.load m 72);
  Alcotest.(check int) "scrubbed content restored" 5 (Memsys.load m 80)

(* ------------------------------------------------------------------ *)
(* Snapshots: the crash explorer's image-install path. *)

let not_live fn =
  Invalid_argument ("Memsys." ^ fn ^ ": not the live snapshot of this memory")

let test_restore_rejects_stale_snapshots () =
  let m = Memsys.create (cfg ()) in
  let old = Memsys.snapshot m in
  let live = Memsys.snapshot m in
  Alcotest.check_raises "superseded snapshot" (not_live "restore") (fun () ->
      Memsys.restore m old);
  Alcotest.check_raises "superseded snapshot read"
    (not_live "snapshot_persisted") (fun () ->
      ignore (Memsys.snapshot_persisted old 0));
  (* Another world at the same snapshot count: only the owner matches. *)
  let other = Memsys.create (cfg ()) in
  ignore (Memsys.snapshot other);
  ignore (Memsys.snapshot other);
  Alcotest.check_raises "another world's snapshot" (not_live "restore")
    (fun () -> Memsys.restore other live);
  (* The live snapshot restores any number of times. *)
  Memsys.restore m live;
  Memsys.restore m live

(* After a restore the world must be indistinguishable from a fresh one
   holding the same image: the same loads read the same values and charge
   the same virtual time. A prefetch ring left holding the discarded
   run's fills would discount some misses; cached lines left behind would
   turn misses into hits; DRAM left behind would read back. *)
let test_restore_charges_like_fresh_world () =
  let dram = (cfg ()).Memsys.nvm_words in
  let image = List.init 40 (fun i -> ((i * 37) + 3, i + 1)) in
  let with_image () =
    let m = Memsys.create (cfg ()) in
    List.iter (fun (a, v) -> Memsys.poke_persisted m a v) image;
    m
  in
  let loads =
    let r = Rng.create 11 in
    List.init 2000 (fun i ->
        if i mod 3 = 0 then i
        else if i mod 7 = 0 then dram + Rng.int r 64
        else Rng.int r 4096)
  in
  let replay m =
    let total = ref 0.0 in
    Memsys.set_charge m (fun ns -> total := !total +. ns);
    let values = List.map (Memsys.load m) loads in
    (values, !total)
  in
  let want = replay (with_image ()) in
  let m = with_image () in
  let snap = Memsys.snapshot m in
  Memsys.set_tid_provider m (fun () -> 1);
  for a = 0 to 4095 do
    Memsys.store m a (a + 7);
    if a mod 5 = 0 then Memsys.pwb m a
  done;
  for a = dram to dram + 63 do
    Memsys.store m a a;
    Memsys.pwb m a
  done;
  Memsys.set_tid_provider m (fun () -> -1);
  Memsys.restore m snap;
  let values, charge = replay m in
  Alcotest.(check (list int)) "same values" (fst want) values;
  Alcotest.check (Alcotest.float 0.0) "same charge" (snd want) charge

(* Installing an image must cost the lines written since the snapshot, not
   the NVMM size: a whole-image copy would allocate 16x more words at
   2^20 NVMM words than at 2^16. *)
let test_restore_cost_independent_of_nvm_size () =
  let words_per_cycle nvm_words =
    let m = Memsys.create { (cfg ()) with Memsys.nvm_words } in
    let cycle () =
      let snap = Memsys.snapshot m in
      for i = 0 to 7 do
        Memsys.poke_persisted m (i * 1000) i
      done;
      Memsys.restore m snap
    in
    cycle () (* warm-up: materialise chunks, grow the journal *);
    let before = Gc.allocated_bytes () in
    cycle ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let small = words_per_cycle (1 lsl 16) in
  Alcotest.check (Alcotest.float 0.0)
    "words per snapshot/poke/restore cycle" small
    (words_per_cycle (1 lsl 20))

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let prop_flush_all_makes_everything_persistent =
  QCheck.Test.make ~name:"flush_all persists the full store history"
    ~count:100
    QCheck.(list (pair (int_bound 255) (int_bound 10_000)))
    (fun writes ->
      let m = Memsys.create (cfg ~evict_rate:0.1 ~sets:2 ~ways:2 ()) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (a, v) ->
          Memsys.store m a v;
          Hashtbl.replace model a v)
        writes;
      Memsys.flush_all m;
      Hashtbl.fold (fun a v acc -> acc && Memsys.persisted m a = v) model true)

let prop_persisted_only_written_values =
  (* At any moment, the persistent value of an address is one of the values
     ever stored there (no invented values, no torn words). *)
  QCheck.Test.make ~name:"NVMM image only holds written values" ~count:100
    QCheck.(list (pair (int_bound 63) (int_bound 100)))
    (fun writes ->
      let m = Memsys.create (cfg ~evict_rate:0.4 ~sets:2 ~ways:1 ()) in
      let history = Hashtbl.create 16 in
      List.iter
        (fun (a, v) ->
          Memsys.store m a v;
          Hashtbl.replace history (a, v) ())
        writes;
      let ok = ref true in
      for a = 0 to 63 do
        let p = Memsys.persisted m a in
        if p <> 0 && not (Hashtbl.mem history (a, p)) then ok := false
      done;
      !ok)

let prop_crash_then_load_equals_persisted =
  QCheck.Test.make ~name:"after crash, load = persisted everywhere" ~count:50
    QCheck.(list (pair (int_bound 127) small_int))
    (fun writes ->
      let m = Memsys.create (cfg ~evict_rate:0.2 ~sets:4 ~ways:2 ()) in
      List.iter (fun (a, v) -> Memsys.store m a v) writes;
      let image = Array.init 128 (fun a -> Memsys.persisted m a) in
      Memsys.crash m;
      let ok = ref true in
      for a = 0 to 127 do
        if Memsys.load m a <> image.(a) then ok := false
      done;
      !ok)

let qcheck tests =
  List.map (fun t -> Gen_common.to_alcotest ~suite:"simnvm" t) tests

let () =
  Alcotest.run "simnvm"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bits53 is the float draw" `Quick
            test_rng_bits53_is_float;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_allocates_nothing;
        ] );
      ( "addr",
        [
          Alcotest.test_case "arithmetic" `Quick test_addr_arith;
          Alcotest.test_case "align_for" `Quick test_addr_align_for;
        ] );
      ( "memsys",
        [
          Alcotest.test_case "store/load roundtrip" `Quick
            test_store_load_roundtrip;
          Alcotest.test_case "unflushed store lost on crash" `Quick
            test_unflushed_store_lost_on_crash;
          Alcotest.test_case "pwb persists" `Quick test_pwb_persists;
          Alcotest.test_case "flush_all" `Quick test_flush_all;
          Alcotest.test_case "DRAM lost on crash" `Quick
            test_dram_lost_on_crash;
          Alcotest.test_case "persisted rejects DRAM" `Quick
            test_persisted_rejects_dram;
          Alcotest.test_case "force_evict / drop_line" `Quick
            test_force_evict_and_drop;
          Alcotest.test_case "capacity eviction persists" `Quick
            test_capacity_eviction_persists;
          Alcotest.test_case "coherence under eviction" `Quick
            test_coherence_after_eviction;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "address out of range" `Quick
            test_address_out_of_range;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "delivery order" `Quick test_pipeline_delivery;
          Alcotest.test_case "unsubscribe" `Quick test_pipeline_unsubscribe;
          Alcotest.test_case "subscriber churn" `Quick test_pipeline_churn;
          Alcotest.test_case "churn allocation cost" `Quick
            test_subscriber_churn_cost;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "access path allocates nothing" `Quick
            test_access_path_allocates_nothing;
          Alcotest.test_case "first fills allocate nothing" `Quick
            test_first_fills_allocate_nothing;
        ] );
      ( "pcso",
        [
          Alcotest.test_case "same-line ordering holds" `Quick
            test_pcso_same_line_ordering;
          Alcotest.test_case "word-granular ablation violates" `Quick
            test_non_pcso_ablation_violates;
        ] );
      ( "eadr",
        [
          Alcotest.test_case "crash drains NVMM lines" `Quick
            test_eadr_crash_drains_cache;
          Alcotest.test_case "DRAM still volatile" `Quick
            test_eadr_does_not_drain_dram;
        ] );
      ( "costs",
        [
          Alcotest.test_case "hit vs miss" `Quick test_costs_hit_vs_miss;
          Alcotest.test_case "NVM vs DRAM miss" `Quick
            test_costs_nvm_vs_dram_miss;
          Alcotest.test_case "pwb + psync" `Quick test_costs_pwb_psync;
          Alcotest.test_case "eADR flush free" `Quick test_eadr_flush_free;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "faults",
        [
          Alcotest.test_case "poison raises, scrub heals" `Quick
            test_poison_raises_and_scrub_heals;
          Alcotest.test_case "transient fault is one-shot" `Quick
            test_transient_fault_one_shot;
          Alcotest.test_case "restore clears planted faults" `Quick
            test_restore_clears_planted_faults;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore rejects stale snapshots" `Quick
            test_restore_rejects_stale_snapshots;
          Alcotest.test_case "restored world charges like a fresh one" `Quick
            test_restore_charges_like_fresh_world;
          Alcotest.test_case "restore cost independent of NVMM size" `Quick
            test_restore_cost_independent_of_nvm_size;
        ] );
      ( "properties",
        qcheck
          [
            prop_flush_all_makes_everything_persistent;
            prop_persisted_only_written_values;
            prop_crash_then_load_equals_persisted;
          ] );
    ]
