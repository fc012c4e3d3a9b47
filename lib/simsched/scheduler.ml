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

   Threads live in a growable array in spawn order and are never removed,
   so a thread's tid doubles as its index ([thread_clock]/[wakeup] are
   O(1)). Ready threads also sit in a binary min-heap keyed by (clock
   ascending, tid descending), so a context switch costs O(log r) in the
   number r of ready threads however many have finished. The newest
   thread wins clock ties; that rule fixes dispatch order, on which every
   seeded virtual time and golden depends. [spawn]
   and [wakeup] push, [run] pops the thread it dispatches and pushes it
   back if it is still Ready after its slice, and the running thread's
   preemption bound reads the heap top. [kill_all] empties the heap.

   Invariant: a queued thread's clock never changes. Only [wakeup] (on a
   Blocked thread, before pushing it) and [charge], [advance_to] and
   [sleep_until] (on the running thread, which is not queued) write
   clocks, so the heap order stays valid without re-keying. *)

exception Crashed
exception Deadlock of string

type outcome = Completed | Crash_interrupt of float

type entry = Thunk of (unit -> unit) | Started

type thread = {
  tid : int;
  name : string;
  mutable clock : float;
  mutable status : status;
  mutable entry : entry;
  mutable k : (unit, unit) Effect.Deep.continuation option;
}

and status = Ready | Running | Blocked | Finished

type t = {
  mutable threads : thread array; (* index = tid, spawn order *)
  mutable n_threads : int;
  mutable ready : thread array; (* min-heap of Ready threads, see [before] *)
  mutable n_ready : int;
  mutable current : thread option;
  mutable bound : float; (* preemption bound for the running thread *)
  mutable crash_at : float option;
  mutable failure : exn option;
  quantum : float;
  jitter : float;
  rng : Simnvm.Rng.t;
  bus : Trace.bus; (* this world's trace-event bus *)
}

type _ Effect.t += Preempt : unit Effect.t | Block : unit Effect.t

let create ?(seed = 1) ?(quantum = 0.0) ?(jitter = 0.0) () =
  {
    threads = [||];
    n_threads = 0;
    ready = [||];
    n_ready = 0;
    current = None;
    bound = infinity;
    crash_at = None;
    failure = None;
    quantum;
    jitter;
    rng = Simnvm.Rng.create seed;
    bus = Trace.create_bus ();
  }

let trace_bus t = t.bus

let current t =
  match t.current with
  | Some th -> th
  | None -> invalid_arg "Scheduler: no simulated thread is running"

let current_tid t = (current t).tid
let current_tid_opt t = match t.current with Some th -> th.tid | None -> -1
let now t = match t.current with Some th -> th.clock | None -> 0.0

(* A thread becoming Ready while another runs must tighten the runner's
   preemption bound: the bound was computed at dispatch time, and without
   this a thread woken mid-slice (lock hand-off, broadcast) would not get
   the processor until the runner blocked by itself -- entire epochs could
   execute against a stale-infinite bound. *)
let tighten_bound t clock =
  if t.current <> None then t.bound <- Float.min t.bound (clock +. t.quantum)

(* ------------------------------------------------------------------ *)
(* Ready heap *)

(* Heap order: the smaller clock first, the newer thread on equal clocks.
   Tids are unique, so this is a strict total order and the heap top is
   one well-defined thread. *)
let before a b = a.clock < b.clock || (a.clock = b.clock && a.tid > b.tid)

let push t th =
  let n = t.n_ready in
  if n = Array.length t.ready then begin
    let arr = Array.make (max 8 (2 * n)) th in
    Array.blit t.ready 0 arr 0 n;
    t.ready <- arr
  end;
  let heap = t.ready in
  let rec sift_up i =
    let parent = (i - 1) / 2 in
    if i > 0 && before th heap.(parent) then begin
      heap.(i) <- heap.(parent);
      sift_up parent
    end
    else heap.(i) <- th
  in
  sift_up n;
  t.n_ready <- n + 1

(* Remove and return the heap top; [t.n_ready] must be positive. *)
let pop t =
  let heap = t.ready in
  let top = heap.(0) in
  let n = t.n_ready - 1 in
  t.n_ready <- n;
  let last = heap.(n) in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l >= n then heap.(i) <- last
    else
      let c = if l + 1 < n && before heap.(l + 1) heap.(l) then l + 1 else l in
      if before heap.(c) last then begin
        heap.(i) <- heap.(c);
        sift_down c
      end
      else heap.(i) <- last
  in
  if n > 0 then sift_down 0;
  top

let spawn ?(name = "thread") t f =
  let clock = match t.current with Some th -> th.clock | None -> 0.0 in
  let th =
    {
      tid = t.n_threads;
      name;
      clock;
      status = Ready;
      entry = Thunk f;
      k = None;
    }
  in
  let n = t.n_threads in
  if n = Array.length t.threads then begin
    let cap = max 8 (2 * n) in
    let arr = Array.make cap th in
    Array.blit t.threads 0 arr 0 n;
    t.threads <- arr
  end;
  t.threads.(n) <- th;
  t.n_threads <- n + 1;
  push t th;
  tighten_bound t clock;
  th.tid

let find_thread t tid =
  if tid >= 0 && tid < t.n_threads then Some t.threads.(tid) else None

let thread_clock t tid =
  match find_thread t tid with
  | Some th -> th.clock
  | None -> invalid_arg "Scheduler.thread_clock: unknown tid"

let elapsed t =
  let acc = ref 0.0 in
  for i = 0 to t.n_threads - 1 do
    acc := Float.max !acc t.threads.(i).clock
  done;
  !acc

let charge t ns =
  match t.current with
  | None -> () (* setup code outside the simulation is free *)
  | Some th ->
      let ns =
        if t.jitter > 0.0 then
          ns *. (1.0 +. (t.jitter *. (Simnvm.Rng.float t.rng -. 0.5)))
        else ns
      in
      th.clock <- th.clock +. ns

let advance_to t at =
  match t.current with
  | None -> ()
  | Some th -> if at > th.clock then th.clock <- at

let poll t =
  match t.current with
  | None -> ()
  | Some th -> if th.clock > t.bound then Effect.perform Preempt

let yield t =
  match t.current with None -> () | Some _ -> Effect.perform Preempt

let sleep_until t time =
  let th = current t in
  if time > th.clock then th.clock <- time;
  Effect.perform Preempt

let sleep t dur = sleep_until t (now t +. dur)

let block t =
  let th = current t in
  th.status <- Blocked;
  Effect.perform Block;
  (* Re-entry point after wakeup. *)
  ()

let wakeup t tid ~at =
  match find_thread t tid with
  | None -> invalid_arg "Scheduler.wakeup: unknown tid"
  | Some th ->
      if th.status <> Blocked then
        invalid_arg "Scheduler.wakeup: thread is not blocked";
      th.status <- Ready;
      if at > th.clock then th.clock <- at;
      push t th;
      tighten_bound t th.clock

let set_crash_at t time = t.crash_at <- Some time

(* Targeted preemption injection (schedule exploration): collapse the
   running thread's bound so its next [poll] switches out even inside the
   quantum. A no-op outside fibers or when no other thread is ready (the
   min-clock dispatcher would re-pick the same thread anyway). *)
let preempt_now t =
  if t.current <> None then t.bound <- neg_infinity

(* ------------------------------------------------------------------ *)
(* Dispatch loop *)

let handler t th =
  {
    Effect.Deep.retc = (fun () -> th.status <- Finished);
    exnc =
      (fun e ->
        th.status <- Finished;
        match e with Crashed -> () | e -> t.failure <- Some e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Preempt ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                th.k <- Some k;
                th.status <- Ready)
        | Block ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                th.k <- Some k
                (* status was set to Blocked by [block] before performing *))
        | _ -> None);
  }

(* Smallest ready clock of any other thread: the next point at which
   another thread should get the processor in virtual time. The running
   thread has been popped, so this is the heap top. *)
let next_other_clock t = if t.n_ready > 0 then t.ready.(0).clock else infinity

(* Run [th], just popped from the heap, for one slice. *)
let dispatch t th =
  th.status <- Running;
  t.current <- Some th;
  let bound = next_other_clock t +. t.quantum in
  t.bound <-
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
  t.current <- None;
  (* The handler left the thread Ready (preempted), Blocked or Finished. *)
  if th.status = Ready then push t th

let kill_all t =
  for i = t.n_threads - 1 downto 0 do
    let th = t.threads.(i) in
    (match th.k with
    | Some k -> (
        th.k <- None;
        t.current <- Some th;
        try Effect.Deep.discontinue k Crashed with Crashed -> ())
    | None -> ());
    t.current <- None;
    th.status <- Finished
  done;
  t.n_ready <- 0

let describe_blocked t =
  let acc = ref [] in
  for i = 0 to t.n_threads - 1 do
    let th = t.threads.(i) in
    if th.status = Blocked then
      acc := Printf.sprintf "%s#%d@%.0fns" th.name th.tid th.clock :: !acc
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
      | Some c when t.ready.(0).clock >= c ->
          kill_all t;
          Crash_interrupt c
      | Some _ | None ->
          dispatch t (pop t);
          loop ()
  in
  loop ()
