(* Deterministic cooperative scheduler with virtual per-thread clocks.

   Simulated threads are OCaml 5 effect-based fibers. Each thread owns a
   virtual clock (nanoseconds); memory and synchronisation operations charge
   their latency to the clock of the running thread. The scheduler always
   dispatches the ready thread with the smallest clock (conservative
   discrete-event simulation), so:

   - lock contention serialises critical sections in virtual time,
   - "throughput at N threads" is well defined on a single host core,
   - executions are exactly reproducible from the seed.

   Preemption is cooperative: running code calls [poll] (the Env memory
   wrappers do it after every simulated memory access); [poll] switches
   threads when the running clock exceeds the next ready clock plus the
   configured quantum.

   Crash injection: [set_crash_at] declares a virtual instant; once every
   ready thread has reached it, [run] stops dispatching, discontinues all
   fibers and reports [Crashed]. Combined with [Simnvm.Memsys.crash] this
   models a whole-machine power failure at an arbitrary moment.

   Threads live in a growable table in spawn order and are never removed,
   so a thread's tid doubles as its index ([wakeup] is O(1)). Ready
   threads also sit in a binary min-heap keyed by (clock ascending, tid
   descending), so a context switch costs O(log r) in the number r of
   ready threads however many have finished. The newest
   thread wins clock ties; that rule fixes dispatch order, on which every
   seeded virtual time and golden depends. [spawn]
   and [wakeup] push, [run] pops the tid it dispatches and pushes it
   back if the thread is still Ready after its slice, and the running
   thread's preemption bound reads the heap top. [kill_all] empties the
   heap.

   The heap is two flat parallel arrays, a [float array] of clocks and an
   [int array] of tids, sifted in place: a compare reads two adjacent
   keys instead of following two thread records to their clocks, and a
   move writes no pointer, so it runs no write barrier (DESIGN.md section
   10 has the measured switch costs).

   What the hot paths read of a thread is flat too, one slot per tid in
   arrays as long as the thread table: [clocks] holds each thread's
   virtual clock, and [links] the wait-queue chain. The running thread is
   its tid, -1 outside the simulation, so [charge], [poll] and [now] read
   one slot of [clocks], and a dispatch stores an int, which runs no
   write barrier. A thread waits on at most one queue at a time, so one
   link per thread serves every queue: a [Mutex] or [Condvar] holds only
   the tids of its oldest and newest waiters, and [links.(tid)] names the
   waiter queued after [tid] (-1 ends the chain). Only those two modules
   read or write the links ([wait_link], [set_wait_link]); a link means
   something only while its thread waits.

   Invariant: a queued thread's clock never changes. Only [wakeup] (on a
   Blocked thread, before pushing it) and [charge], [advance_to] and
   [sleep_until] (on the running thread, which is not queued) write
   clocks, so the heap order stays valid without re-keying, and the
   clock copied into the heap at [push] stays exact.

   Allocation: every simulated access charges and polls, and a map
   operation switches threads about five times, so none of these paths
   allocates. Clocks are a [float array] and the preemption bound a
   float-only record, both stored flat: writing a float field of a mixed
   record would box it at every charge. Each thread's effect-handler
   closures are built once, when it first runs; the memory's charge and
   tid hooks once per world ([charge_hook], [tid_hook]). The heap sifts
   box no clock (see [push]), and waiting allocates no queue cell. What
   a switch still allocates is the runtime's continuation and the [Some]
   that parks it. *)

exception Crashed
exception Deadlock of string

type outcome = Completed | Crash_interrupt of float

type entry = Thunk of (unit -> unit) | Started

(* A virtual instant in ns, in a float-only record (stored flat). *)
type vtime = { mutable ns : float }

type thread = {
  name : string;
  mutable status : status;
  mutable entry : entry;
  mutable k : (unit, unit) Effect.Deep.continuation option;
}

and status = Ready | Running | Blocked | Finished

type t = {
  (* The thread table, index = tid, spawn order. The five arrays have one
     length, the capacity; the first [n_threads] slots of [threads],
     [clocks] and [links] are live. *)
  mutable threads : thread array;
  mutable clocks : float array; (* each thread's virtual clock *)
  mutable links : int array; (* the next waiter on a thread's queue *)
  mutable n_threads : int;
  (* The ready heap, see [before]: entry [i] is the thread
     [ready_tid.(i)], queued at clock [ready_clock.(i)]. A thread is
     queued at most once. *)
  mutable ready_clock : float array;
  mutable ready_tid : int array;
  mutable n_ready : int;
  mutable current : int; (* tid of the running thread, -1 when none *)
  bound : vtime; (* preemption bound for the running thread *)
  mutable crash_at : float option;
  mutable failure : exn option;
  quantum : float;
  jitter : float;
  rng : Simnvm.Rng.t;
  bus : Simnvm.Event.bus; (* this world's one event stream *)
  mutable lock_ids : int; (* trace identities handed to locks so far *)
}

type _ Effect.t += Preempt : unit Effect.t | Block : unit Effect.t

let create ?bus ?(seed = 1) ?(quantum = 0.0) ?(jitter = 0.0) () =
  {
    threads = [||];
    clocks = [||];
    links = [||];
    n_threads = 0;
    ready_clock = [||];
    ready_tid = [||];
    n_ready = 0;
    current = -1;
    bound = { ns = infinity };
    crash_at = None;
    failure = None;
    quantum;
    jitter;
    rng = Simnvm.Rng.create seed;
    bus = (match bus with Some b -> b | None -> Simnvm.Event.create_bus ());
    lock_ids = 0;
  }

let trace_bus t = t.bus

let current_tid t =
  let c = t.current in
  if c < 0 then invalid_arg "Scheduler: no simulated thread is running";
  c

let current_tid_opt t = t.current

(* [t.current] is -1 or a live tid, so [clocks] holds its slot. *)
let[@inline] now t =
  let c = t.current in
  if c < 0 then 0.0 else Array.unsafe_get t.clocks c

(* A thread becoming Ready while another runs must tighten the runner's
   preemption bound: the bound was computed at dispatch time, and without
   this a thread woken mid-slice (lock hand-off, broadcast) would not get
   the processor until the runner blocked by itself -- entire epochs could
   execute against a stale-infinite bound. *)
let tighten_bound t tid =
  if t.current >= 0 then
    t.bound.ns <- Float.min t.bound.ns (t.clocks.(tid) +. t.quantum)

(* ------------------------------------------------------------------ *)
(* Ready heap *)

(* Heap order: the smaller clock first, the newer thread on equal clocks.
   Tids are unique, so this is a strict total order and the heap top is
   one well-defined thread. Inlined, so no clock is boxed to call it. *)
let[@inline] before (clock_a : float) (tid_a : int) clock_b tid_b =
  clock_a < clock_b || (clock_a = clock_b && tid_a > tid_b)

(* The sifts are loops over the two arrays, not recursive helpers: a
   float passed to a call that is not inlined is boxed. They skip the
   bounds checks: every index is below [n_ready] but [push]'s first hole,
   which the assertion keeps inside the arrays. *)

(* Queue Ready thread [tid]: a hole at the end rises to its entry's
   place. *)
let push t tid =
  let clocks = t.ready_clock and tids = t.ready_tid in
  let clock = t.clocks.(tid) in
  let i = ref t.n_ready and sifting = ref true in
  assert (!i < Array.length tids);
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if before clock tid (Array.unsafe_get clocks p) (Array.unsafe_get tids p)
    then begin
      Array.unsafe_set clocks !i (Array.unsafe_get clocks p);
      Array.unsafe_set tids !i (Array.unsafe_get tids p);
      i := p
    end
    else sifting := false
  done;
  Array.unsafe_set clocks !i clock;
  Array.unsafe_set tids !i tid;
  t.n_ready <- t.n_ready + 1

(* Remove the heap top and return its tid; [t.n_ready] must be
   positive. The hole at the root sinks until the last entry fits. *)
let pop t =
  let clocks = t.ready_clock and tids = t.ready_tid in
  let top = tids.(0) in
  let n = t.n_ready - 1 in
  t.n_ready <- n;
  if n > 0 then begin
    let clock = Array.unsafe_get clocks n and tid = Array.unsafe_get tids n in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c =
          if
            l + 1 < n
            && before
                 (Array.unsafe_get clocks (l + 1))
                 (Array.unsafe_get tids (l + 1))
                 (Array.unsafe_get clocks l) (Array.unsafe_get tids l)
          then l + 1
          else l
        in
        if before (Array.unsafe_get clocks c) (Array.unsafe_get tids c) clock tid
        then begin
          Array.unsafe_set clocks !i (Array.unsafe_get clocks c);
          Array.unsafe_set tids !i (Array.unsafe_get tids c);
          i := c
        end
        else sifting := false
      end
    done;
    Array.unsafe_set clocks !i clock;
    Array.unsafe_set tids !i tid
  end;
  top

(* The table starts at one thread and doubles: a verified recovery
   builds a fresh one-fiber scheduler, about 3 500 per crash-matrix
   execution, and each slot of capacity costs five words. *)
let spawn ?(name = "thread") t f =
  let th = { name; status = Ready; entry = Thunk f; k = None } in
  let n = t.n_threads in
  if n = Array.length t.threads then begin
    let cap = max 1 (2 * n) in
    let threads = Array.make cap th
    and clocks = Array.make cap 0.0
    and links = Array.make cap (-1)
    and ready_clock = Array.make cap 0.0
    and ready_tid = Array.make cap 0 in
    Array.blit t.threads 0 threads 0 n;
    Array.blit t.clocks 0 clocks 0 n;
    Array.blit t.links 0 links 0 n;
    Array.blit t.ready_clock 0 ready_clock 0 t.n_ready;
    Array.blit t.ready_tid 0 ready_tid 0 t.n_ready;
    t.threads <- threads;
    t.clocks <- clocks;
    t.links <- links;
    t.ready_clock <- ready_clock;
    t.ready_tid <- ready_tid
  end;
  t.threads.(n) <- th;
  t.clocks.(n) <- now t;
  t.n_threads <- n + 1;
  push t n;
  tighten_bound t n;
  n

let elapsed t =
  let acc = ref 0.0 in
  for i = 0 to t.n_threads - 1 do
    acc := Float.max !acc t.clocks.(i)
  done;
  !acc

(* Inlined into [charge] and into the memory's hook ([charge_hook]). *)
let[@inline] add_charge t ns =
  let c = t.current in
  (* setup code outside the simulation is free *)
  if c >= 0 then begin
    let ns =
      if t.jitter > 0.0 then
        ns *. (1.0 +. (t.jitter *. (Simnvm.Rng.float t.rng -. 0.5)))
      else ns
    in
    let clocks = t.clocks in
    Array.unsafe_set clocks c (Array.unsafe_get clocks c +. ns)
  end

let charge t ns = add_charge t ns

(* Each hook is a closure of one argument over [t]: the [let] keeps
   [charge_hook t] from being an arity-2 function, whose partial
   application would build a closure that calls it. *)
let charge_hook t =
  let hook ns = add_charge t ns in
  hook

let tid_hook t =
  let hook () = t.current in
  hook

let advance_to t at =
  let c = t.current in
  if c >= 0 && at > Array.unsafe_get t.clocks c then
    Array.unsafe_set t.clocks c at

let poll t =
  let c = t.current in
  if c >= 0 && Array.unsafe_get t.clocks c > t.bound.ns then
    Effect.perform Preempt

let yield t = if t.current >= 0 then Effect.perform Preempt

let sleep_until t time =
  let c = current_tid t in
  if time > t.clocks.(c) then t.clocks.(c) <- time;
  Effect.perform Preempt

let sleep t dur = sleep_until t (now t +. dur)

let block t =
  let c = current_tid t in
  t.threads.(c).status <- Blocked;
  Effect.perform Block;
  (* Re-entry point after wakeup. *)
  ()

let wakeup t tid ~at =
  if tid < 0 || tid >= t.n_threads then
    invalid_arg "Scheduler.wakeup: unknown tid";
  let th = t.threads.(tid) in
  if th.status <> Blocked then
    invalid_arg "Scheduler.wakeup: thread is not blocked";
  th.status <- Ready;
  if at > t.clocks.(tid) then t.clocks.(tid) <- at;
  push t tid;
  tighten_bound t tid

let wait_link t tid = t.links.(tid)
let set_wait_link t tid next = t.links.(tid) <- next
let set_crash_at t time = t.crash_at <- Some time

(* Targeted preemption injection (schedule exploration): collapse the
   running thread's bound so its next [poll] switches out even inside the
   quantum. A no-op outside fibers or when no other thread is ready (the
   min-clock dispatcher would re-pick the same thread anyway). *)
let preempt_now t = if t.current >= 0 then t.bound.ns <- neg_infinity

(* ------------------------------------------------------------------ *)
(* Dispatch loop *)

(* Built once per thread, at its first dispatch: the two effect cases
   hand back closures made here rather than fresh ones per switch. *)
let handler t th =
  let preempted =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.k <- Some k;
        th.status <- Ready)
  in
  let blocked =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        th.k <- Some k
        (* status was set to Blocked by [block] before performing *))
  in
  {
    Effect.Deep.retc = (fun () -> th.status <- Finished);
    exnc =
      (fun e ->
        th.status <- Finished;
        match e with Crashed -> () | e -> t.failure <- Some e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Preempt -> preempted | Block -> blocked | _ -> None);
  }

(* Smallest ready clock of any other thread: the next point at which
   another thread should get the processor in virtual time. The running
   thread has been popped, so this is the heap top. *)
let[@inline] next_other_clock t =
  if t.n_ready > 0 then t.ready_clock.(0) else infinity

(* Run thread [tid], just popped from the heap, for one slice. *)
let dispatch t tid =
  let th = t.threads.(tid) in
  th.status <- Running;
  t.current <- tid;
  let bound = next_other_clock t +. t.quantum in
  t.bound.ns <-
    (match t.crash_at with Some c -> Float.min bound c | None -> bound);
  (match th.entry with
  | Thunk f ->
      th.entry <- Started;
      Effect.Deep.match_with f () (handler t th)
  | Started -> (
      match th.k with
      | Some k ->
          th.k <- None;
          Effect.Deep.continue k ()
      | None -> assert false));
  t.current <- -1;
  (* The handler left the thread Ready (preempted), Blocked or Finished. *)
  if th.status = Ready then push t tid

let kill_all t =
  for i = t.n_threads - 1 downto 0 do
    let th = t.threads.(i) in
    (match th.k with
    | Some k -> (
        th.k <- None;
        t.current <- i;
        try Effect.Deep.discontinue k Crashed with Crashed -> ())
    | None -> ());
    t.current <- -1;
    th.status <- Finished
  done;
  t.n_ready <- 0

let describe_blocked t =
  let acc = ref [] in
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    if th.status = Blocked then
      acc := Printf.sprintf "%s#%d@%.0fns" th.name i t.clocks.(i) :: !acc
  done;
  String.concat ", " !acc

let any_blocked t =
  let rec go i =
    i < t.n_threads && (t.threads.(i).status = Blocked || go (i + 1))
  in
  go 0

let run t =
  let rec loop () =
    (match t.failure with
    | Some e ->
        t.failure <- None;
        kill_all t;
        raise e
    | None -> ());
    if t.n_ready = 0 then
      if any_blocked t then
        raise
          (Deadlock
             (Printf.sprintf "no runnable thread; blocked: %s"
                (describe_blocked t)))
      else Completed
    else
      match t.crash_at with
      | Some c when t.ready_clock.(0) >= c ->
          kill_all t;
          Crash_interrupt c
      | Some _ | None ->
          dispatch t (pop t);
          loop ()
  in
  loop ()

let next_lock_id t =
  t.lock_ids <- t.lock_ids + 1;
  t.lock_ids
