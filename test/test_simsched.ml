(* Tests for the cooperative virtual-time scheduler: clock semantics,
   min-clock dispatch order, mutexes, condition variables, barriers, sleep,
   deadlock detection and crash injection. *)

open Simsched
module Mutex = Simsched.Mutex

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Scheduler.Completed -> Fmt.string ppf "Completed"
      | Scheduler.Crash_interrupt t -> Fmt.pf ppf "Crash@%.0f" t)
    ( = )

(* ------------------------------------------------------------------ *)
(* Basic execution *)

let test_spawn_and_run () =
  let s = Scheduler.create () in
  let hits = ref 0 in
  for _ = 1 to 5 do
    ignore (Scheduler.spawn s (fun () -> incr hits))
  done;
  Alcotest.check outcome "completed" Scheduler.Completed (Scheduler.run s);
  Alcotest.(check int) "all ran" 5 !hits

let test_charge_advances_clock () =
  let s = Scheduler.create () in
  let seen = ref 0.0 in
  ignore
    (Scheduler.spawn s (fun () ->
         Scheduler.charge s 100.0;
         Scheduler.charge s 50.0;
         seen := Scheduler.now s));
  ignore (Scheduler.run s);
  Alcotest.check (Alcotest.float 0.001) "clock" 150.0 !seen;
  Alcotest.check (Alcotest.float 0.001) "elapsed" 150.0 (Scheduler.elapsed s)

let test_min_clock_order () =
  (* A cheap thread and an expensive thread interleave in clock order: the
     observed sequence of (tid, clock) pairs must be sorted by clock. *)
  let s = Scheduler.create () in
  let log = ref [] in
  let worker cost n () =
    for _ = 1 to n do
      Scheduler.charge s cost;
      log := Scheduler.now s :: !log;
      Scheduler.poll s
    done
  in
  ignore (Scheduler.spawn s (worker 10.0 30));
  ignore (Scheduler.spawn s (worker 35.0 10));
  ignore (Scheduler.run s);
  let times = Array.of_list (List.rev !log) in
  (* Each thread may overrun the preemption bound by at most one operation
     (charge-then-poll), so inversions are bounded by the largest op cost. *)
  let max_op = 35.0 in
  let running_max = ref neg_infinity in
  Array.iter
    (fun t ->
      Alcotest.(check bool) "bounded inversion" true (t >= !running_max -. max_op);
      if t > !running_max then running_max := t)
    times

let test_spawn_inside_thread () =
  let s = Scheduler.create () in
  let child_ran = ref false in
  ignore
    (Scheduler.spawn s (fun () ->
         Scheduler.charge s 42.0;
         ignore (Scheduler.spawn s (fun () -> child_ran := true))));
  ignore (Scheduler.run s);
  Alcotest.(check bool) "child ran" true !child_ran

let test_exception_propagates () =
  let s = Scheduler.create () in
  ignore (Scheduler.spawn s (fun () -> failwith "boom"));
  Alcotest.check_raises "reraised" (Failure "boom") (fun () ->
      ignore (Scheduler.run s))

let test_tie_break_newest_first () =
  (* Equal clocks go to the newest tid, both at first dispatch and after
     every thread has yielded back to the same instant. *)
  let s = Scheduler.create () in
  let order = ref [] in
  for _ = 1 to 3 do
    ignore
      (Scheduler.spawn s (fun () ->
           let me = Scheduler.current_tid s in
           order := me :: !order;
           Scheduler.charge s 10.0;
           Scheduler.yield s;
           order := me :: !order))
  done;
  ignore (Scheduler.run s);
  Alcotest.(check (list int)) "newest first" [ 2; 1; 0; 2; 1; 0 ]
    (List.rev !order)

(* Digest of the (tid, clock) pair observed after every scheduling point
   of a seeded jittered program mixing mutex hand-off, condvar wake-ups,
   sleep_until and yield. Pinned so that any change to dispatch order or
   to any virtual clock shows up bit for bit. *)
let dispatch_trace ?(seed = 5) ?(jitter = 0.3) () =
  let s = Scheduler.create ~seed ~quantum:10.0 ~jitter () in
  let m = Mutex.create () in
  let cv = Condvar.create () in
  let buf = Buffer.create 4096 in
  let marks = ref 0 in
  let mark () =
    incr marks;
    Printf.bprintf buf "%d:%h;" (Scheduler.current_tid s) (Scheduler.now s)
  in
  let items = ref 0 in
  for p = 0 to 2 do
    ignore
      (Scheduler.spawn s (fun () ->
           for i = 1 to 16 do
             Scheduler.charge s (20.0 +. float_of_int (7 * p));
             Scheduler.poll s;
             mark ();
             Mutex.lock s m;
             mark ();
             incr items;
             Condvar.signal s cv;
             Mutex.unlock s m;
             if i mod 4 = 0 then begin
               Scheduler.yield s;
               mark ()
             end
           done))
  done;
  for _ = 1 to 2 do
    ignore
      (Scheduler.spawn s (fun () ->
           for _ = 1 to 24 do
             Mutex.lock s m;
             mark ();
             while !items = 0 do
               Condvar.wait s cv m;
               mark ()
             done;
             decr items;
             Mutex.unlock s m;
             Scheduler.charge s 35.0;
             Scheduler.poll s;
             mark ()
           done))
  done;
  ignore
    (Scheduler.spawn s ~name:"timer" (fun () ->
         for k = 1 to 6 do
           Scheduler.sleep_until s (150.0 *. float_of_int k);
           mark ()
         done));
  Alcotest.check outcome "completed" Scheduler.Completed (Scheduler.run s);
  Printf.bprintf buf "end:%h" (Scheduler.elapsed s);
  (!marks, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_dispatch_order_golden () =
  let marks, digest = dispatch_trace () in
  Alcotest.(check int) "scheduling points" 212 marks;
  Alcotest.(check string) "dispatch digest" "e3676d320126c0e40feb9d2fd057fe4c" digest

(* The seed feeds only the charge jitter: without jitter every seed runs
   the one schedule, with it two seeds run two. *)
let test_seed_read_only_under_jitter () =
  let digest ~seed ~jitter = snd (dispatch_trace ~seed ~jitter ()) in
  Alcotest.(check string) "jitter 0: seeds 5 and 6 agree"
    (digest ~seed:5 ~jitter:0.0) (digest ~seed:6 ~jitter:0.0);
  Alcotest.(check bool) "jitter 0.3: seeds 5 and 6 differ" true
    (digest ~seed:5 ~jitter:0.3 <> digest ~seed:6 ~jitter:0.3)

(* The golden above never holds more than six threads in the ready heap.
   This one runs 128 workers whose charges are all equal, so without
   jitter their clocks tie at every heap level and the newest-tid rule
   decides each pick; eight sleepers park far-future clocks in the heap's
   leaves, four mutexes hand ownership off ([wakeup ~at]), the workers
   meet at 1 us grid instants (ties even under jitter), and the crash
   instant lands mid-run, so the run ends through [Crash_interrupt]. *)
let deep_dispatch_trace ~seed ~jitter =
  let s = Scheduler.create ~seed ~quantum:25.0 ~jitter () in
  let locks = Array.init 4 (fun _ -> Mutex.create ()) in
  let buf = Buffer.create 65536 in
  let marks = ref 0 in
  let mark () =
    incr marks;
    Printf.bprintf buf "%d:%h;" (Scheduler.current_tid s) (Scheduler.now s)
  in
  for k = 1 to 8 do
    ignore
      (Scheduler.spawn s ~name:"sleeper" (fun () ->
           Scheduler.sleep_until s (1e9 *. float_of_int k);
           mark ()))
  done;
  for w = 0 to 127 do
    ignore
      (Scheduler.spawn s (fun () ->
           for i = 1 to 40 do
             Scheduler.charge s 40.0;
             Scheduler.poll s;
             mark ();
             if i mod 5 = 0 then begin
               let m = locks.(w land 3) in
               Mutex.lock s m;
               mark ();
               Scheduler.charge s 40.0;
               Mutex.unlock s m
             end;
             if i mod 8 = 0 then begin
               Scheduler.sleep_until s
                 (1000.0 *. (Float.floor (Scheduler.now s /. 1000.0) +. 1.0));
               mark ()
             end
           done))
  done;
  Scheduler.set_crash_at s 3_500.0;
  Alcotest.check outcome "crashed mid-run" (Scheduler.Crash_interrupt 3_500.0)
    (Scheduler.run s);
  Printf.bprintf buf "end:%h" (Scheduler.elapsed s);
  (!marks, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_deep_dispatch_order_golden () =
  let marks, digest = deep_dispatch_trace ~seed:1 ~jitter:0.0 in
  Alcotest.(check int) "ties: scheduling points" 4992 marks;
  Alcotest.(check string) "ties: dispatch digest"
    "7d6f172daf90a8aac6848e824d1a50c2" digest;
  let marks, digest = deep_dispatch_trace ~seed:7 ~jitter:0.3 in
  Alcotest.(check int) "jitter: scheduling points" 4992 marks;
  Alcotest.(check string) "jitter: dispatch digest"
    "29f24576b6a2bb95bb6e4f09c7b402b0" digest

let test_determinism () =
  let run_once () =
    let s = Scheduler.create ~seed:9 ~jitter:0.2 () in
    let m = Mutex.create () in
    let acc = ref [] in
    for i = 1 to 4 do
      ignore
        (Scheduler.spawn s (fun () ->
             for _ = 1 to 20 do
               Mutex.lock s m;
               Scheduler.charge s 30.0;
               acc := i :: !acc;
               Mutex.unlock s m;
               Scheduler.poll s
             done))
    done;
    ignore (Scheduler.run s);
    (!acc, Scheduler.elapsed s)
  in
  let a1, e1 = run_once () in
  let a2, e2 = run_once () in
  Alcotest.(check (list int)) "same interleaving" a1 a2;
  Alcotest.check (Alcotest.float 0.0001) "same makespan" e1 e2

(* ------------------------------------------------------------------ *)
(* Mutex *)

let test_mutex_serialises () =
  (* Contended critical sections are serialised by lock hand-off; an
     uncontended re-acquisition may overlap the previous section by at most
     the scheduler quantum plus one operation (see Mutex). Threads poll
     inside the section, as all simulated memory accesses do. *)
  let s = Scheduler.create () in
  let m = Mutex.create () in
  let sections = ref [] in
  for _ = 1 to 4 do
    ignore
      (Scheduler.spawn s (fun () ->
           for _ = 1 to 10 do
             Mutex.lock s m;
             let start = Scheduler.now s in
             for _ = 1 to 10 do
               Scheduler.charge s 10.0;
               Scheduler.poll s
             done;
             sections := (start, Scheduler.now s) :: !sections;
             Mutex.unlock s m
           done))
  done;
  ignore (Scheduler.run s);
  let by_start = List.sort compare !sections in
  let max_overlap = 12.0 (* one op past the zero quantum *) in
  let rec check_bounded = function
    | (_, e1) :: ((s2, _) :: _ as rest) ->
        Alcotest.(check bool) "bounded overlap" true (s2 >= e1 -. max_overlap);
        check_bounded rest
    | [ _ ] | [] -> ()
  in
  check_bounded by_start

let test_mutex_unlock_not_owner () =
  let s = Scheduler.create () in
  let m = Mutex.create ~name:"m" () in
  ignore
    (Scheduler.spawn s (fun () ->
         Alcotest.check_raises "not owner"
           (Invalid_argument "Mutex.unlock(m): not the owner") (fun () ->
             Mutex.unlock s m)));
  ignore (Scheduler.run s)

let test_mutex_try_lock () =
  let s = Scheduler.create () in
  let m = Mutex.create () in
  let results = ref [] in
  ignore
    (Scheduler.spawn s (fun () ->
         results := Mutex.try_lock s m :: !results;
         results := Mutex.try_lock s m :: !results;
         Mutex.unlock s m;
         results := Mutex.try_lock s m :: !results;
         Mutex.unlock s m));
  ignore (Scheduler.run s);
  Alcotest.(check (list bool)) "try results" [ true; false; true ]
    (List.rev !results)

let test_with_lock_releases_on_exn () =
  let s = Scheduler.create () in
  let m = Mutex.create () in
  ignore
    (Scheduler.spawn s (fun () ->
         (try Mutex.with_lock s m (fun () -> failwith "inner") with
         | Failure _ -> ());
         Alcotest.(check bool) "released" true (Mutex.holder m = None)));
  ignore (Scheduler.run s)

let test_contended_lock_advances_clock () =
  (* A thread blocked on a contended lock resumes no earlier than the
     release time (the exact hand-off path). *)
  let s = Scheduler.create () in
  let m = Mutex.create () in
  let t2_entry = ref 0.0 in
  ignore
    (Scheduler.spawn s (fun () ->
         Mutex.lock s m;
         Scheduler.charge s 1000.0;
         Scheduler.poll s;
         Mutex.unlock s m));
  ignore
    (Scheduler.spawn s (fun () ->
         Scheduler.charge s 10.0;
         Scheduler.poll s;
         Mutex.lock s m;
         t2_entry := Scheduler.now s;
         Mutex.unlock s m));
  ignore (Scheduler.run s);
  Alcotest.(check bool) "waited until release" true (!t2_entry >= 1000.0)

(* ------------------------------------------------------------------ *)
(* Condvar *)

let test_condvar_producer_consumer () =
  let s = Scheduler.create () in
  let m = Mutex.create () in
  let cv = Condvar.create () in
  let queue = Queue.create () in
  let consumed = ref [] in
  ignore
    (Scheduler.spawn s ~name:"consumer" (fun () ->
         for _ = 1 to 10 do
           Mutex.lock s m;
           while Queue.is_empty queue do
             Condvar.wait s cv m
           done;
           consumed := Queue.pop queue :: !consumed;
           Mutex.unlock s m
         done));
  ignore
    (Scheduler.spawn s ~name:"producer" (fun () ->
         for i = 1 to 10 do
           Scheduler.charge s 50.0;
           Mutex.lock s m;
           Queue.push i queue;
           Condvar.signal s cv;
           Mutex.unlock s m;
           Scheduler.poll s
         done));
  Alcotest.check outcome "completed" Scheduler.Completed (Scheduler.run s);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !consumed)

let test_condvar_broadcast () =
  let s = Scheduler.create () in
  let m = Mutex.create () in
  let cv = Condvar.create () in
  let go = ref false in
  let woken = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Scheduler.spawn s (fun () ->
           Mutex.lock s m;
           while not !go do
             Condvar.wait s cv m
           done;
           incr woken;
           Mutex.unlock s m))
  done;
  ignore
    (Scheduler.spawn s (fun () ->
         Scheduler.charge s 500.0;
         Mutex.lock s m;
         go := true;
         Condvar.broadcast s cv;
         Mutex.unlock s m));
  Alcotest.check outcome "completed" Scheduler.Completed (Scheduler.run s);
  Alcotest.(check int) "all woken" 5 !woken

let test_condvar_signal_no_waiter () =
  let s = Scheduler.create () in
  let cv = Condvar.create () in
  ignore (Scheduler.spawn s (fun () -> Condvar.signal s cv));
  Alcotest.check outcome "no-op" Scheduler.Completed (Scheduler.run s)

(* ------------------------------------------------------------------ *)
(* Barrier / sleep / deadlock *)

let test_barrier_syncs_clocks () =
  let s = Scheduler.create () in
  let b = Barrier.create 3 in
  let after = ref [] in
  List.iter
    (fun cost ->
      ignore
        (Scheduler.spawn s (fun () ->
             Scheduler.charge s cost;
             Scheduler.poll s;
             Barrier.await s b;
             after := Scheduler.now s :: !after)))
    [ 100.0; 2000.0; 500.0 ];
  ignore (Scheduler.run s);
  List.iter
    (fun t -> Alcotest.(check bool) "past slowest" true (t >= 2000.0))
    !after

let test_sleep_until_orders_timer () =
  (* A timer thread sleeping to t=1000 must observe work done by a worker
     before t=1000 and none of the work after. *)
  let s = Scheduler.create () in
  let progress = ref 0 in
  let seen = ref (-1) in
  ignore
    (Scheduler.spawn s ~name:"worker" (fun () ->
         for _ = 1 to 100 do
           Scheduler.charge s 100.0;
           incr progress;
           Scheduler.poll s
         done));
  ignore
    (Scheduler.spawn s ~name:"timer" (fun () ->
         Scheduler.sleep_until s 1000.0;
         seen := !progress));
  ignore (Scheduler.run s);
  (* ~10 units of 100ns work fit before t=1000. *)
  Alcotest.(check bool) "timer saw partial progress" true
    (!seen >= 9 && !seen <= 11)

let test_deadlock_detection () =
  let s = Scheduler.create () in
  let a = Mutex.create ~name:"a" () in
  let b = Mutex.create ~name:"b" () in
  ignore
    (Scheduler.spawn s (fun () ->
         Mutex.lock s a;
         Scheduler.charge s 100.0;
         Scheduler.yield s;
         Mutex.lock s b;
         Mutex.unlock s b;
         Mutex.unlock s a));
  ignore
    (Scheduler.spawn s (fun () ->
         Mutex.lock s b;
         Scheduler.charge s 100.0;
         Scheduler.yield s;
         Mutex.lock s a;
         Mutex.unlock s a;
         Mutex.unlock s b));
  (match Scheduler.run s with
  | exception Scheduler.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected deadlock")

(* ------------------------------------------------------------------ *)
(* Crash injection *)

let test_crash_interrupts () =
  let s = Scheduler.create () in
  let steps = ref 0 in
  ignore
    (Scheduler.spawn s (fun () ->
         for _ = 1 to 1000 do
           Scheduler.charge s 100.0;
           incr steps;
           Scheduler.poll s
         done));
  Scheduler.set_crash_at s 5_000.0;
  (match Scheduler.run s with
  | Scheduler.Crash_interrupt t ->
      Alcotest.check (Alcotest.float 0.001) "crash time" 5_000.0 t
  | Scheduler.Completed -> Alcotest.fail "expected crash");
  Alcotest.(check bool) "stopped near crash point" true
    (!steps >= 49 && !steps <= 51)

let test_crash_before_any_work () =
  let s = Scheduler.create () in
  ignore (Scheduler.spawn s (fun () -> Scheduler.charge s 10.0));
  Scheduler.set_crash_at s 0.0;
  match Scheduler.run s with
  | Scheduler.Crash_interrupt _ -> ()
  | Scheduler.Completed -> Alcotest.fail "expected crash"

let test_completion_before_crash () =
  let s = Scheduler.create () in
  ignore (Scheduler.spawn s (fun () -> Scheduler.charge s 10.0));
  Scheduler.set_crash_at s 1_000_000.0;
  Alcotest.check outcome "completed first" Scheduler.Completed
    (Scheduler.run s)

let test_crash_holds_locks () =
  (* A crash must not run unlock paths: the lock stays held afterwards. *)
  let s = Scheduler.create () in
  let m = Mutex.create () in
  ignore
    (Scheduler.spawn s (fun () ->
         Mutex.with_lock s m (fun () ->
             for _ = 1 to 100 do
               Scheduler.charge s 100.0;
               Scheduler.poll s
             done)));
  Scheduler.set_crash_at s 500.0;
  (match Scheduler.run s with
  | Scheduler.Crash_interrupt _ -> ()
  | Scheduler.Completed -> Alcotest.fail "expected crash");
  Alcotest.(check bool) "lock still held" true (Mutex.holder m <> None)

let test_crash_clears_queue () =
  (* After a crash every fiber is dead: a second [run] finds nothing to
     dispatch, neither the interrupted workers nor a child spawned past the
     crash instant that never started. *)
  let s = Scheduler.create () in
  let m = Mutex.create () in
  let steps = Array.make 3 0 in
  let child_ran = ref false in
  for i = 0 to 1 do
    ignore
      (Scheduler.spawn s (fun () ->
           for _ = 1 to 100 do
             Mutex.lock s m;
             Scheduler.charge s 50.0;
             Scheduler.poll s;
             Mutex.unlock s m;
             steps.(i) <- steps.(i) + 1
           done))
  done;
  ignore
    (Scheduler.spawn s (fun () ->
         Scheduler.charge s 1_000.0;
         ignore (Scheduler.spawn s (fun () -> child_ran := true));
         Scheduler.poll s;
         steps.(2) <- steps.(2) + 1));
  Scheduler.set_crash_at s 500.0;
  (match Scheduler.run s with
  | Scheduler.Crash_interrupt _ -> ()
  | Scheduler.Completed -> Alcotest.fail "expected crash");
  let before = Array.copy steps in
  Alcotest.check outcome "second run" Scheduler.Completed (Scheduler.run s);
  Alcotest.(check (array int)) "no killed fiber resumed" before steps;
  Alcotest.(check int) "spawner stopped at the crash" 0 steps.(2);
  Alcotest.(check bool) "unstarted child discarded" false !child_ran

(* Minor-heap words allocated per context switch by [ready] threads
   yielding round-robin (equal charges), measured inside the oldest one,
   which runs last in each round, over [n] rounds. *)
let words_per_switch ?(finished = 0) ?(ready = 2) () =
  let s = Scheduler.create () in
  for _ = 1 to finished do
    ignore (Scheduler.spawn s (fun () -> ()))
  done;
  ignore (Scheduler.run s);
  let n = 2_000 in
  let delta = ref 0.0 in
  let ping measure () =
    for i = 1 to n + 100 do
      if measure && i = 101 then delta := -.Gc.minor_words ();
      Scheduler.charge s 1.0;
      Scheduler.yield s
    done;
    if measure then delta := !delta +. Gc.minor_words ()
  in
  ignore (Scheduler.spawn s (ping true));
  for _ = 2 to ready do
    ignore (Scheduler.spawn s (ping false))
  done;
  ignore (Scheduler.run s);
  !delta /. float_of_int (ready * n)

let test_switch_cost_ignores_finished () =
  let idle = words_per_switch () in
  let crowded = words_per_switch ~finished:10_000 () in
  Alcotest.check (Alcotest.float 0.01) "same words per switch" idle crowded

(* ------------------------------------------------------------------ *)
(* Allocation: a simulated access, a charge, a poll and an uncontended
   lock pair allocate nothing once warm. Each runs inside a fiber, as in a
   simulation: [words_per_call] runs [f 1 .. f rounds] once to warm up
   (first touches materialise line buffers and backing chunks), then
   again under [Gc.minor_words], which is exact. *)

let alloc_rounds = 10_000

let words_per_call s f =
  let words = ref nan in
  ignore
    (Scheduler.spawn s (fun () ->
         for i = 1 to alloc_rounds do
           f i
         done;
         let before = Gc.minor_words () in
         for i = 1 to alloc_rounds do
           f i
         done;
         words := (Gc.minor_words () -. before) /. float_of_int alloc_rounds));
  ignore (Scheduler.run s);
  !words

let check_no_alloc what w =
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates %.3f words per call, want 0" what w)
    true (w = 0.0)

(* A 256-line cache: cycling over 4096 lines misses on every access, and
   once stores have dirtied the cache every fill writes a victim back. *)
let env_words ?(evict_rate = 0.0) f =
  let cfg =
    {
      Simnvm.Memsys.default_config with
      Simnvm.Memsys.sets = 64;
      ways = 4;
      evict_rate;
    }
  in
  let s = Scheduler.create () in
  words_per_call s (f (Env.make (Simnvm.Memsys.create cfg) s))

let miss_addr i =
  i land 4095 * Simnvm.Memsys.default_config.Simnvm.Memsys.line_words

let test_env_access_allocates_nothing () =
  check_no_alloc "Env.load hit"
    (env_words (fun env _ -> ignore (Env.load env 0)));
  check_no_alloc "Env.store hit" (env_words (fun env i -> Env.store env 0 i));
  check_no_alloc "Env.load miss"
    (env_words (fun env i -> ignore (Env.load env (miss_addr i))));
  check_no_alloc "Env.store miss, dirty victim"
    (env_words (fun env i -> Env.store env (miss_addr i) i));
  check_no_alloc "Env.store + Env.pwb"
    (env_words (fun env i ->
         Env.store env 8 i;
         Env.pwb env 8));
  check_no_alloc "Env.pwb of a clean line"
    (env_words (fun env _ -> Env.pwb env 8));
  check_no_alloc "Env.psync" (env_words (fun env _ -> Env.psync env));
  check_no_alloc "Env.store, evict_rate 1.0"
    (env_words ~evict_rate:1.0 (fun env i -> Env.store env (miss_addr i) i))

let test_charge_poll_allocate_nothing () =
  let s = Scheduler.create () in
  check_no_alloc "Scheduler.charge + poll"
    (words_per_call s (fun _ ->
         Scheduler.charge s 3.0;
         Scheduler.poll s))

let test_uncontended_lock_allocates_nothing () =
  let s = Scheduler.create () in
  let m = Mutex.create () in
  check_no_alloc "Mutex.lock + unlock"
    (words_per_call s (fun _ ->
         Mutex.lock s m;
         Mutex.unlock s m))

(* A yield switch allocates only what the OCaml runtime does: the
   continuation it captures and the [Some] that parks it. The ready heap
   itself allocates nothing: with 64 threads ready every sift runs six
   levels deep, and a switch must still cost the 2-thread case's words.
   Under the dev profile's [-opaque] a float passed to a sift helper that
   is not inlined would be boxed and show up here. *)
let test_switch_words_bounded () =
  let w = words_per_switch () in
  Alcotest.(check bool)
    (Printf.sprintf "a yield switch allocates %.3f words, want <= 4" w)
    true (w <= 4.0);
  Alcotest.check (Alcotest.float 0.01) "64 ready threads vs 2" w
    (words_per_switch ~ready:64 ())

(* ------------------------------------------------------------------ *)
(* Env integration *)

let test_env_charges_thread () =
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let s = Scheduler.create () in
  let env = Env.make mem s in
  let t_end = ref 0.0 in
  ignore
    (Scheduler.spawn s (fun () ->
         Env.store env 100 7;
         Alcotest.(check int) "value" 7 (Env.load env 100);
         Env.pwb env 100;
         Env.psync env;
         Env.compute env 1000.0;
         t_end := Scheduler.now s));
  ignore (Scheduler.run s);
  Alcotest.(check bool) "time charged" true (!t_end > 1000.0)

let test_env_two_threads_parallel_time () =
  (* Two independent threads doing the same work should finish at roughly
     the same virtual instant (parallel execution), not double time. *)
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let s = Scheduler.create () in
  let env = Env.make mem s in
  let ends = ref [] in
  for i = 0 to 1 do
    ignore
      (Scheduler.spawn s (fun () ->
           for j = 0 to 999 do
             Env.store env ((i * 4096) + (j mod 512)) j
           done;
           ends := Scheduler.now s :: !ends))
  done;
  ignore (Scheduler.run s);
  match !ends with
  | [ a; b ] ->
      let ratio = Float.max a b /. Float.min a b in
      Alcotest.(check bool) "parallel, not serial" true (ratio < 1.5)
  | _ -> Alcotest.fail "expected two threads"

(* ------------------------------------------------------------------ *)
(* The world's event bus *)

module Event = Simnvm.Event

let kind_of (ev : Event.t) =
  match ev with
  | Event.Load _ -> "load"
  | Event.Store _ -> "store"
  | Event.Hit _ -> "hit"
  | Event.Miss _ -> "miss"
  | Event.Writeback _ -> "writeback"
  | Event.Eviction _ -> "eviction"
  | Event.Rmw _ -> "rmw"
  | Event.Pwb _ -> "pwb"
  | Event.Psync _ -> "psync"
  | Event.Compute _ -> "compute"
  | Event.Acquire _ -> "acquire"
  | Event.Release _ -> "release"
  | Event.Restart_point _ -> "rp"
  | Event.Crash _ -> "crash"
  | Event.Media_error _ -> "media-error"
  | Event.Media_scrub _ -> "media-scrub"

let traced f =
  let mem = Simnvm.Memsys.create Simnvm.Memsys.default_config in
  let s = Scheduler.create () in
  let env = Env.make mem s in
  let (), tr =
    Event.record (Scheduler.trace_bus s) (fun () ->
        ignore (Scheduler.spawn s (fun () -> f env));
        ignore (Scheduler.run s))
  in
  List.map kind_of tr

let test_trace_full_stream () =
  (* One stream per world: the memory publishes each access before it
     lands, followed by its cache outcome and write-backs; Env adds only
     the compute charge. Nothing is published twice. *)
  Alcotest.(check (list string))
    "full stream"
    [ "store"; "miss"; "load"; "hit"; "pwb"; "writeback"; "psync"; "compute" ]
    (traced (fun env ->
         Env.store env 0 1;
         ignore (Env.load env 0);
         Env.pwb env 0;
         Env.psync env;
         Env.compute env 50.0))

let test_trace_rmw_regression () =
  (* Regression: cas/faa used to bypass tracing entirely, leaving RMW-heavy
     structures invisible to the race checker and RP advisor. Each RMW must
     appear as the memory's load (+store on write), then Env's rmw. *)
  Alcotest.(check (list string))
    "successful cas"
    [ "load"; "miss"; "store"; "hit"; "rmw" ]
    (traced (fun env -> ignore (Env.cas env 0 ~expected:0 ~desired:1)));
  Alcotest.(check (list string))
    "failed cas emits no store" [ "load"; "miss"; "rmw" ]
    (traced (fun env -> ignore (Env.cas env 0 ~expected:99 ~desired:1)));
  Alcotest.(check (list string))
    "faa"
    [ "load"; "miss"; "store"; "hit"; "rmw" ]
    (traced (fun env -> ignore (Env.faa env 0 7)))

(* Two threads over three locks, two of them nested: the lock events of
   one run, lock ids included. *)
let lock_events () =
  let s = Scheduler.create () in
  let a = Mutex.create () and b = Mutex.create () and c = Mutex.create () in
  let (), tr =
    Event.record (Scheduler.trace_bus s) (fun () ->
        for i = 0 to 1 do
          ignore
            (Scheduler.spawn s (fun () ->
                 Mutex.with_lock s (if i = 0 then b else c) (fun () ->
                     Mutex.with_lock s a (fun () -> Scheduler.charge s 10.0))))
        done;
        ignore (Scheduler.run s))
  in
  List.filter_map
    (function
      | Event.Acquire { tid; lock } -> Some (Fmt.str "acquire t%d L%d" tid lock)
      | Event.Release { tid; lock } -> Some (Fmt.str "release t%d L%d" tid lock)
      | _ -> None)
    tr

let test_trace_mutex_events () =
  let first = lock_events () in
  Alcotest.(check (list string))
    "lock events"
    [ "acquire"; "acquire"; "acquire"; "release"; "release"; "acquire";
      "release"; "release" ]
    (List.map (fun e -> List.hd (String.split_on_char ' ' e)) first);
  (* lock identities come from the world, not from what ran before *)
  Alcotest.(check (list string)) "same world, same stream" first (lock_events ())

let test_trace_inactive_by_default () =
  let s = Scheduler.create () in
  let bus = Scheduler.trace_bus s in
  Alcotest.(check bool) "inactive" false (Event.active bus);
  let sub = Event.subscribe bus (fun _ -> ()) in
  Alcotest.(check bool) "active" true (Event.active bus);
  Event.unsubscribe bus sub;
  Alcotest.(check bool) "inactive again" false (Event.active bus)

let () =
  Alcotest.run "simsched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "spawn and run" `Quick test_spawn_and_run;
          Alcotest.test_case "charge advances clock" `Quick
            test_charge_advances_clock;
          Alcotest.test_case "min-clock dispatch order" `Quick
            test_min_clock_order;
          Alcotest.test_case "spawn inside thread" `Quick
            test_spawn_inside_thread;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "ties go to the newest tid" `Quick
            test_tie_break_newest_first;
          Alcotest.test_case "dispatch-order golden" `Quick
            test_dispatch_order_golden;
          Alcotest.test_case "deep dispatch-order golden" `Quick
            test_deep_dispatch_order_golden;
          Alcotest.test_case "seed read only under jitter" `Quick
            test_seed_read_only_under_jitter;
          Alcotest.test_case "switch cost ignores finished threads" `Quick
            test_switch_cost_ignores_finished;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "serialises critical sections" `Quick
            test_mutex_serialises;
          Alcotest.test_case "unlock by non-owner" `Quick
            test_mutex_unlock_not_owner;
          Alcotest.test_case "try_lock" `Quick test_mutex_try_lock;
          Alcotest.test_case "with_lock releases on exn" `Quick
            test_with_lock_releases_on_exn;
          Alcotest.test_case "contention advances clock" `Quick
            test_contended_lock_advances_clock;
        ] );
      ( "condvar",
        [
          Alcotest.test_case "producer/consumer" `Quick
            test_condvar_producer_consumer;
          Alcotest.test_case "broadcast" `Quick test_condvar_broadcast;
          Alcotest.test_case "signal without waiter" `Quick
            test_condvar_signal_no_waiter;
        ] );
      ( "coordination",
        [
          Alcotest.test_case "barrier syncs clocks" `Quick
            test_barrier_syncs_clocks;
          Alcotest.test_case "sleep_until orders timer" `Quick
            test_sleep_until_orders_timer;
          Alcotest.test_case "deadlock detection" `Quick
            test_deadlock_detection;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash interrupts" `Quick test_crash_interrupts;
          Alcotest.test_case "crash at t=0" `Quick test_crash_before_any_work;
          Alcotest.test_case "completion before crash" `Quick
            test_completion_before_crash;
          Alcotest.test_case "crash holds locks" `Quick test_crash_holds_locks;
          Alcotest.test_case "crash clears the ready queue" `Quick
            test_crash_clears_queue;
        ] );
      ( "env",
        [
          Alcotest.test_case "charges thread clock" `Quick
            test_env_charges_thread;
          Alcotest.test_case "parallel virtual time" `Quick
            test_env_two_threads_parallel_time;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "Env accesses allocate nothing" `Quick
            test_env_access_allocates_nothing;
          Alcotest.test_case "charge and poll allocate nothing" `Quick
            test_charge_poll_allocate_nothing;
          Alcotest.test_case "uncontended lock allocates nothing" `Quick
            test_uncontended_lock_allocates_nothing;
          Alcotest.test_case "context switch bounded" `Quick
            test_switch_words_bounded;
        ] );
      ( "trace",
        [
          Alcotest.test_case "full access stream" `Quick test_trace_full_stream;
          Alcotest.test_case "cas/faa traced (regression)" `Quick
            test_trace_rmw_regression;
          Alcotest.test_case "mutex events" `Quick test_trace_mutex_events;
          Alcotest.test_case "inactive by default" `Quick
            test_trace_inactive_by_default;
        ] );
    ]
