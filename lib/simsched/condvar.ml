(* Simulated condition variable with pthread semantics.

   The wait queue is intrusive, as [Mutex]'s is: the condvar holds the
   tids of its oldest and newest waiters, and the scheduler's per-thread
   links chain them ([Scheduler.wait_link]), so a condvar is one block
   and a wait allocates no queue cell. Waiters join at the tail; [signal]
   wakes the head and [broadcast] every waiter in wait order, reading
   each link before it wakes that link's thread. A queue emptied resets
   both ends. *)

let signal_ns = 20.0
let wait_ns = 25.0

type t = { mutable head : int; mutable tail : int }

let create () = { head = -1; tail = -1 }

let wait sched cv m =
  Scheduler.charge sched wait_ns;
  let me = Scheduler.current_tid sched in
  Scheduler.set_wait_link sched me (-1);
  if cv.tail < 0 then cv.head <- me
  else Scheduler.set_wait_link sched cv.tail me;
  cv.tail <- me;
  Mutex.unlock sched m;
  (* No preemption point between the queue registration above and this
     block: a signaller always observes us Blocked. *)
  Scheduler.block sched;
  Mutex.lock sched m

let signal sched cv =
  Scheduler.charge sched signal_ns;
  let tid = cv.head in
  if tid >= 0 then begin
    let after = Scheduler.wait_link sched tid in
    cv.head <- after;
    if after < 0 then cv.tail <- -1;
    Scheduler.wakeup sched tid ~at:(Scheduler.now sched)
  end

let broadcast sched cv =
  Scheduler.charge sched signal_ns;
  let at = Scheduler.now sched in
  let tid = ref cv.head in
  cv.head <- -1;
  cv.tail <- -1;
  while !tid >= 0 do
    let waiter = !tid in
    tid := Scheduler.wait_link sched waiter;
    Scheduler.wakeup sched waiter ~at
  done
