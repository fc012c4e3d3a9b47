(* Simulated pthread-style mutex.

   Contended acquisitions are exact: on unlock with waiters, ownership is
   handed directly to the oldest waiter, whose clock is advanced to the
   release instant, so contended critical sections are perfectly
   serialised in virtual time.

   Uncontended acquisitions are approximate: a thread may acquire a free
   mutex at a clock slightly behind the previous holder's release, because
   dispatch order can run a whole critical section before a
   virtually-earlier thread gets the processor. Under min-clock scheduling
   this overlap is bounded by the scheduler quantum plus one operation.
   (Advancing the acquirer to the release time would close the gap but
   creates a positive-feedback ratchet -- inflated release times propagate
   through other locks and serialise unrelated threads -- so the bounded
   error is the right trade-off.)

   No preemption point sits between a wait-queue registration and the
   corresponding [Scheduler.block], so a waiter is always observably Blocked
   by the time any other thread can try to wake it.

   The wait queue is intrusive: a lock holds the tids of its oldest and
   newest waiters, and the scheduler's per-thread links chain them
   ([Scheduler.wait_link]). So a lock is one block, [unlock] reads no
   second block to learn that nobody waits, and a contended acquisition
   allocates no queue cell. Waiters join at the tail, ownership passes
   from the head, and a queue emptied resets both ends. *)

let lock_ns = 18.0
let unlock_ns = 14.0

(* Cache-line transfer cost when the lock (and the data it protects) was
   last held by a different core: the coherence miss that dominates
   contended critical sections on real multiprocessors. *)
let coherence_ns = 90.0

(* Owners and waiters are tids, -1 for none: an [int option] would
   allocate a [Some] at every acquisition. *)
type t = {
  name : string;
  mutable id : int; (* identity in trace events; 0 until first traced *)
  mutable owner : int;
  mutable last_owner : int;
  mutable head : int; (* oldest waiter *)
  mutable tail : int; (* newest waiter *)
}

let create ?(name = "mutex") () =
  { name; id = 0; owner = -1; last_owner = -1; head = -1; tail = -1 }

(* A lock takes its identity from the world's scheduler the first time it
   appears on the bus, so the same world emits the same Acquire/Release
   stream however many worlds ran before it in the process. *)
let trace_id sched m =
  if m.id = 0 then m.id <- Scheduler.next_lock_id sched;
  m.id

let lock sched m =
  Scheduler.charge sched lock_ns;
  Scheduler.poll sched;
  let me = Scheduler.current_tid sched in
  (if m.owner < 0 then begin
     m.owner <- me;
     if m.last_owner >= 0 && m.last_owner <> me then
       Scheduler.charge sched coherence_ns;
     m.last_owner <- me
   end
   else begin
     Scheduler.set_wait_link sched me (-1);
     if m.tail < 0 then m.head <- me
     else Scheduler.set_wait_link sched m.tail me;
     m.tail <- me;
     Scheduler.block sched;
     (* Ownership was handed off by the releaser, necessarily another core. *)
     assert (m.owner = me);
     Scheduler.charge sched coherence_ns;
     m.last_owner <- me
   end);
  let bus = Scheduler.trace_bus sched in
  if Simnvm.Event.active bus then
    Simnvm.Event.emit bus
      (Simnvm.Event.Acquire { tid = me; lock = trace_id sched m })

(* The hand-off reads the release instant only when there is a waiter to
   hand to, so an uncontended release boxes no float. *)
let unlock sched m =
  let me = Scheduler.current_tid sched in
  if m.owner <> me then
    invalid_arg (Printf.sprintf "Mutex.unlock(%s): not the owner" m.name);
  Scheduler.charge sched unlock_ns;
  let bus = Scheduler.trace_bus sched in
  if Simnvm.Event.active bus then
    Simnvm.Event.emit bus
      (Simnvm.Event.Release { tid = me; lock = trace_id sched m });
  let next = m.head in
  if next < 0 then m.owner <- -1
  else begin
    let after = Scheduler.wait_link sched next in
    m.head <- after;
    if after < 0 then m.tail <- -1;
    m.owner <- next;
    Scheduler.wakeup sched next ~at:(Scheduler.now sched)
  end

let try_lock sched m =
  Scheduler.charge sched lock_ns;
  let me = Scheduler.current_tid sched in
  if m.owner < 0 then begin
    m.owner <- me;
    if m.last_owner >= 0 && m.last_owner <> me then
      Scheduler.charge sched coherence_ns;
    m.last_owner <- me;
    true
  end
  else false

let holder m = if m.owner < 0 then None else Some m.owner

let with_lock sched m f =
  lock sched m;
  match f () with
  | v ->
      unlock sched m;
      v
  | exception e ->
      (* Simulated crashes must not release locks (the machine died). *)
      if e <> Scheduler.Crashed then unlock sched m;
      raise e
